// Search-trace persistence.
//
// T_a — the (configuration, run time) record from a tuning run — is the
// paper's transferable artifact: collected once per machine, reused to
// warm every future search. These helpers serialize a SearchTrace to a
// self-describing CSV (header row carries the parameter names; a leading
// comment row carries algorithm/problem/machine metadata) and load it
// back against a ParamSpace, validating that the space matches.
//
// Format (v3, the only version read or written):
//   # portatune-trace v3,<algorithm>,<problem>,<machine>
//   <param0>,<param1>,...,seconds,draw_index,wall_unix
//   32,256,4,...,0.3412,17,1712000000.25
//   # checksum,<16 hex digits>
//
// Values are written as parameter *values* (like the surrogate features),
// not indices, so traces stay meaningful if a space is re-declared with
// the same values in a different construction order per parameter. The
// final `# checksum` footer carries the FNV-1a hash of every byte before
// it (support/checksum.hpp). Loaders verify it before reading anything
// else, so a truncated or bit-flipped file fails with a checksum
// diagnostic instead of silently resuming from garbage.
//
// Checkpoints extend the trace format with the sampler and resilience
// state needed to resume an interrupted search exactly (extra `# key,...`
// metadata rows; rows carry the original elapsed timestamp so the
// resumed clock is bitwise-identical):
//
//   # portatune-checkpoint v3,<algorithm>,<problem>,<machine>
//   # draws,<stream draws consumed>
//   # clock,<search clock seconds>
//   # stop,<stop reason or empty>
//   # stats,<attempts>,<failures>,<transient>,<deterministic>,<timeouts>,<overhead_seconds>
//   # quarantine,<hex hash>,<hex hash>,...          (row absent when empty)
//   # pending,<hex hash>:<draw>,...                 (row absent when empty;
//                                                    session suggestions not
//                                                    yet reported)
//   <param0>,...,seconds,elapsed,draw_index,wall_unix
//   ...rows...
//   # checksum,<16 hex digits>
//
// Older files (v1 without the wall_unix column, v2 without the footer)
// are rejected with a portatune::Error, like any file without a footer.
#pragma once

#include <iosfwd>
#include <string>

#include "tuner/random_search.hpp"
#include "tuner/trace.hpp"

namespace portatune::tuner {

/// Serialize to a stream. Throws on traces whose space is unknown — pass
/// the space the trace was recorded against.
void save_trace_csv(std::ostream& os, const SearchTrace& trace,
                    const ParamSpace& space);

/// Serialize to a file (overwrites). Throws portatune::Error on I/O error.
void save_trace_csv(const std::string& path, const SearchTrace& trace,
                    const ParamSpace& space);

/// Parse a trace written by save_trace_csv. Every row's values must be
/// present in the space's per-parameter value lists (exact match);
/// otherwise throws portatune::Error with the offending row.
SearchTrace load_trace_csv(std::istream& is, const ParamSpace& space);

/// Load from a file. Throws portatune::Error on I/O or format errors.
SearchTrace load_trace_csv(const std::string& path,
                           const ParamSpace& space);

/// Serialize an in-progress search snapshot (trace + sampler position +
/// quarantine) so the search can be resumed exactly.
void save_checkpoint_csv(std::ostream& os, const SearchCheckpoint& snapshot,
                         const ParamSpace& space);

/// Serialize to a file. The file is written to `path + ".tmp"` first and
/// renamed, so a crash mid-write never corrupts the previous checkpoint.
void save_checkpoint_csv(const std::string& path,
                         const SearchCheckpoint& snapshot,
                         const ParamSpace& space);

/// Parse a checkpoint written by save_checkpoint_csv. Validates the space
/// like load_trace_csv. Throws portatune::Error on I/O or format errors.
SearchCheckpoint load_checkpoint_csv(std::istream& is,
                                     const ParamSpace& space);

SearchCheckpoint load_checkpoint_csv(const std::string& path,
                                     const ParamSpace& space);

}  // namespace portatune::tuner
