#pragma once

// Layer-DAG analysis for radiomc_lint.
//
// A checked-in manifest (`.lint-layers` at the repo root) declares the
// architecture as data: named layers mapped to paths, and the include
// edges the design permits between them. The analysis then holds the
// *actual* include graph (stage-one facts) against the declaration:
//
//   * the declared edge graph must be acyclic — a cycle in the manifest
//     means the architecture itself is circular, reported with the path;
//   * every cross-layer quoted #include must ride a declared edge;
//   * every linted file must belong to a declared layer once it includes
//     across directories.
//
// This is the tree's one include policy. Model purity (protocol headers
// see only the station-facing radio headers), the offline-only trace
// auditor and the clock-free engine are all layers and edges in the
// manifest, so `--no-layers` turns off every include check.
//
// Manifest grammar (line oriented, `#` comments):
//
//   layer <name> <entry> [<entry>...]
//   allow <from> -> <to>
//
// An entry is one of three forms, most specific first:
//
//   src/support/stopwatch.h   one file (its last component has an extension)
//   src/protocols/*.h         the headers directly in one directory (no
//                             other glob is accepted)
//   src/radio                 a directory and everything below it
//
// A path belongs to the layer of its most specific matching entry: a file
// beats a header set, which beats a directory, and a longer directory
// beats a shorter one.
//
// Parse errors are reported as unwaivable findings against the manifest
// file itself, with line numbers.

#include <string>
#include <vector>

#include "lint/facts.h"
#include "lint/rules.h"

namespace radiomc::lint {

struct LayerEntry {
  /// Declared in increasing specificity: a higher kind wins resolution.
  enum class Kind { kDir, kHeaders, kFile };
  Kind kind = Kind::kDir;
  std::string path;  ///< the directory (kDir, kHeaders) or the file (kFile)
};

struct LayerDecl {
  std::string name;
  std::vector<LayerEntry> entries;
  int line = 0;
};

struct LayerEdge {
  std::string from;
  std::string to;
  int line = 0;
};

struct LayerParseError {
  int line = 0;
  std::string message;
};

struct LayerManifest {
  std::vector<LayerDecl> layers;
  std::vector<LayerEdge> edges;
  std::vector<LayerParseError> errors;
};

/// Parses manifest text. Never throws; syntax problems land in `errors`
/// with specific messages (unknown directive, redeclared layer, malformed
/// allow, unsupported glob, undeclared layer reference, duplicate edge).
LayerManifest parse_layer_manifest(const std::string& text);

/// Runs the layer-dag analysis: manifest errors (unwaivable, reported
/// against `manifest_name`), declared-graph cycles, undeclared cross-layer
/// include edges (reported at the include line), and unmapped files.
std::vector<Finding> check_layers(const LayerManifest& manifest,
                                  const std::string& manifest_name,
                                  const FactsDb& facts);

/// The layer owning `path`, by its most specific matching entry; empty if
/// none match. `path` is either a linted file (`src/radio/x.cpp`, with any
/// leading directories) or a quoted include rooted below an entry's first
/// directory (`radio/x.h` names `src/radio/x.h`). A path without a `/`
/// belongs to no layer.
std::string layer_of(const LayerManifest& manifest, std::string_view path);

}  // namespace radiomc::lint
