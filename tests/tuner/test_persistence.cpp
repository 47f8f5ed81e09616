#include "tuner/persistence.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "support/atomic_file.hpp"
#include "support/checksum.hpp"
#include "support/error.hpp"
#include "tests/tuner/synthetic.hpp"
#include "tuner/random_search.hpp"

namespace portatune::tuner {
namespace {

using testing::QuadraticEvaluator;

SearchTrace sample_trace(QuadraticEvaluator& eval, std::size_t n = 25) {
  RandomSearchOptions opt;
  opt.max_evals = n;
  opt.seed = 13;
  return random_search(eval, opt);
}

TEST(Persistence, RoundTripsExactly) {
  QuadraticEvaluator eval("M", {5, 5, 5, 5}, {1, 1, 1, 1});
  const auto original = sample_trace(eval);

  std::stringstream buf;
  save_trace_csv(buf, original, eval.space());
  const auto loaded = load_trace_csv(buf, eval.space());

  EXPECT_EQ(loaded.algorithm(), "RS");
  EXPECT_EQ(loaded.problem(), "quadratic");
  EXPECT_EQ(loaded.machine(), "M");
  ASSERT_EQ(loaded.size(), original.size());
  for (std::size_t i = 0; i < original.size(); ++i) {
    EXPECT_EQ(loaded.entry(i).config, original.entry(i).config);
    EXPECT_DOUBLE_EQ(loaded.entry(i).seconds, original.entry(i).seconds);
    EXPECT_EQ(loaded.entry(i).draw_index, original.entry(i).draw_index);
  }
  EXPECT_DOUBLE_EQ(loaded.best_seconds(), original.best_seconds());
}

TEST(Persistence, FileRoundTrip) {
  QuadraticEvaluator eval("M", {2, 3, 4, 5}, {1, 2, 1, 2});
  const auto original = sample_trace(eval, 10);
  const std::string path = ::testing::TempDir() + "/trace.csv";
  save_trace_csv(path, original, eval.space());
  const auto loaded = load_trace_csv(path, eval.space());
  EXPECT_EQ(loaded.size(), 10u);
}

TEST(Persistence, LoadedTraceFitsSurrogates) {
  // The round-tripped T_a must be usable as transfer input.
  QuadraticEvaluator eval("M", {5, 5, 5, 5}, {1, 1, 1, 1});
  const auto original = sample_trace(eval, 40);
  std::stringstream buf;
  save_trace_csv(buf, original, eval.space());
  const auto loaded = load_trace_csv(buf, eval.space());
  const auto data = loaded.to_dataset(eval.space());
  EXPECT_EQ(data.num_rows(), 40u);
  EXPECT_EQ(data.num_features(), 4u);
}

TEST(Persistence, CheckpointRoundTripsPendingSuggestions) {
  QuadraticEvaluator eval("M", {5, 5, 5, 5}, {1, 1, 1, 1});
  SearchCheckpoint snapshot;
  snapshot.trace = sample_trace(eval, 10);
  snapshot.draws = 14;
  snapshot.pending = {{0xdeadbeefcafef00dULL, 12}, {0x42ULL, 13}};

  std::stringstream buf;
  save_checkpoint_csv(buf, snapshot, eval.space());
  const auto loaded = load_checkpoint_csv(buf, eval.space());

  EXPECT_EQ(loaded.draws, 14u);
  ASSERT_EQ(loaded.pending.size(), 2u);
  EXPECT_EQ(loaded.pending[0].first, 0xdeadbeefcafef00dULL);
  EXPECT_EQ(loaded.pending[0].second, 12u);
  EXPECT_EQ(loaded.pending[1].first, 0x42ULL);
  EXPECT_EQ(loaded.pending[1].second, 13u);

  // Checkpoints with no outstanding suggestions stay byte-identical to
  // the pre-`# pending` format: the row is simply absent.
  snapshot.pending.clear();
  std::stringstream plain;
  save_checkpoint_csv(plain, snapshot, eval.space());
  EXPECT_EQ(plain.str().find("# pending"), std::string::npos);
}

TEST(Persistence, RejectsForeignFiles) {
  QuadraticEvaluator eval("M", {1, 1, 1, 1}, {1, 1, 1, 1});
  std::stringstream bad("hello,world\n1,2\n");
  EXPECT_THROW(load_trace_csv(bad, eval.space()), Error);
}

TEST(Persistence, RejectsMismatchedSpace) {
  QuadraticEvaluator a("M", {5, 5, 5, 5}, {1, 1, 1, 1});
  const auto trace = sample_trace(a, 5);
  std::stringstream buf;
  save_trace_csv(buf, trace, a.space());

  // A space with different parameter names must be rejected.
  ParamSpace other;
  other.add("x", range_values(0, 9));
  other.add("y", range_values(0, 9));
  other.add("z", range_values(0, 9));
  other.add("w", range_values(0, 9));
  EXPECT_THROW(load_trace_csv(buf, other), Error);
}

/// Load `payload` sealed with a valid footer, so the loader gets past the
/// checksum, and expect the Error to name `needle`.
void expect_trace_rejected(const std::string& payload,
                           const std::string& needle) {
  QuadraticEvaluator eval("M", {1, 1, 1, 1}, {1, 1, 1, 1});
  std::stringstream buf(append_checksum_footer(payload));
  try {
    load_trace_csv(buf, eval.space());
    ADD_FAILURE() << "loaded a trace that should fail with: " << needle;
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << e.what();
  }
}

TEST(Persistence, RejectsValuesOutsideTheDomain) {
  expect_trace_rejected(
      "# portatune-trace v3,RS,quadratic,M\n"
      "p0,p1,p2,p3,seconds,draw_index,wall_unix\n"
      "99,0,0,0,1.5,0,0\n",  // 99 is not a value of p0 (0..9)
      "not in the domain of parameter p0");
}

TEST(Persistence, RejectsNegativeRunTimes) {
  expect_trace_rejected(
      "# portatune-trace v3,RS,quadratic,M\n"
      "p0,p1,p2,p3,seconds,draw_index,wall_unix\n"
      "1,2,3,4,-1.0,0,0\n",
      "bad run time");
}

/// The quadratic test space plus one parameter with fractional, tiny and
/// huge values, so the golden files pin how features are formatted too.
ParamSpace golden_space() {
  ParamSpace space = testing::grid_space(4);
  space.add("scale", {2.5e-7, 0.125, 1.0 / 3.0, 1e21});
  return space;
}

/// A fixed snapshot (no RNG, no wall clock) that fills every row kind:
/// a stop reason holding a comma, non-zero stats, quarantine and pending.
SearchCheckpoint golden_checkpoint() {
  SearchCheckpoint ck;
  ck.trace = SearchTrace("RS_b", "quadratic", "M");
  ck.trace.restore_entry({1, 2, 3, 4, 0}, 0.1, 0.1, 0, 1700000000.125);
  ck.trace.restore_entry({9, 0, 5, 5, 2}, 2.0 / 3.0, 0.85, 3, 1700000001.5);
  ck.trace.restore_entry({0, 0, 0, 0, 3}, 1e-9, 1.25, 6, 0.0);
  ck.trace.restore_stop_reason("failure budget exhausted: 3 failures, 4 total");
  FailureStats fs;
  fs.attempts = 9;
  fs.failures = 4;
  fs.transient = 2;
  fs.deterministic = 1;
  fs.timeouts = 1;
  fs.overhead_seconds = 0.375;
  ck.trace.restore_failure_stats(fs);
  ck.trace.restore_clock(1.625);
  ck.draws = 8;
  ck.quarantine = {0xdeadbeefULL, 0x0123456789abcdefULL};
  ck.pending = {{0xfeedfaceULL, 7}};
  return ck;
}

/// Byte-compare against tests/data/<name>. On a mismatch the actual
/// bytes are left in the test temp directory; after a deliberate format
/// change, copy that file over the golden one.
void expect_golden(const std::string& actual, const std::string& name) {
  const std::string golden = read_file(PORTATUNE_TEST_DATA_DIR "/" + name);
  if (actual == golden) return;
  const std::string out = ::testing::TempDir() + name;
  std::ofstream(out, std::ios::binary) << actual;
  ADD_FAILURE() << name << " differs from its golden file; got " << out;
}

TEST(Persistence, SavedBytesMatchTheGoldenFiles) {
  const ParamSpace space = golden_space();
  const SearchCheckpoint ck = golden_checkpoint();

  std::ostringstream trace_bytes;
  save_trace_csv(trace_bytes, ck.trace, space);
  expect_golden(trace_bytes.str(), "golden_trace.csv");

  std::ostringstream checkpoint_bytes;
  save_checkpoint_csv(checkpoint_bytes, ck, space);
  expect_golden(checkpoint_bytes.str(), "golden_checkpoint.csv");

  // Both files load back to what was saved.
  std::istringstream trace_in(trace_bytes.str());
  const SearchTrace trace = load_trace_csv(trace_in, space);
  ASSERT_EQ(trace.size(), 3u);
  EXPECT_EQ(trace.entry(1).config, ck.trace.entry(1).config);
  EXPECT_EQ(trace.entry(2).draw_index, 6u);

  std::istringstream checkpoint_in(checkpoint_bytes.str());
  const SearchCheckpoint loaded = load_checkpoint_csv(checkpoint_in, space);
  EXPECT_EQ(loaded.trace.stop_reason(), ck.trace.stop_reason());
  EXPECT_EQ(loaded.trace.failure_stats().timeouts, 1u);
  EXPECT_EQ(loaded.quarantine, ck.quarantine);
  EXPECT_EQ(loaded.pending, ck.pending);
  EXPECT_DOUBLE_EQ(loaded.trace.entry(1).elapsed, 0.85);
  std::ostringstream again;
  save_checkpoint_csv(again, loaded, space);
  EXPECT_EQ(again.str(), checkpoint_bytes.str());
}

TEST(Persistence, MissingFileThrows) {
  QuadraticEvaluator eval("M", {1, 1, 1, 1}, {1, 1, 1, 1});
  EXPECT_THROW(load_trace_csv("/nonexistent/trace.csv", eval.space()),
               Error);
}

}  // namespace
}  // namespace portatune::tuner
