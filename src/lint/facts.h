#pragma once

// Stage one of the semantic analyzer: per-file *facts* extracted from the
// lexer's token stream (src/lint/lexer.h).
//
// The token-level rules of PR 5/6 see one file at a time; the invariants
// the ROADMAP's sharded-engine and protocol-plurality items depend on are
// cross-translation-unit properties — a split tag declared in one file and
// colliding with a tag in another, an include edge that closes a layer
// cycle three directories away. So the analyzer is two-stage: this pass
// walks each token stream exactly once and records everything the
// cross-TU analyses (src/lint/semantic.h, src/lint/layers.h) need, as
// plain data that can also be serialized (`radiomc_lint --facts-out`) for
// offline inspection.
//
// Like the lexer, extraction is total: any token stream produces facts,
// never an error. It is a heuristic parse (no preprocessing, no name
// lookup), tuned to this repo's idioms and pinned by fixtures in
// tests/lint_test.cpp.

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "lint/lexer.h"

namespace radiomc::lint {

// ---------------------------------------------------------------------------
// Path helpers shared by every pass (rules match directory suffixes so the
// tool works on absolute paths, repo-relative paths and fixture names).
// ---------------------------------------------------------------------------

/// True iff `path` contains `dir` as a complete path-component prefix
/// somewhere, e.g. in_dir("/root/repo/src/protocols/x.cpp", "src/protocols").
bool in_dir(std::string_view path, std::string_view dir);
std::string_view basename_of(std::string_view path);
bool is_header(std::string_view path);
/// support/rng.{h,cpp}: the one place raw engines and literal seeds live.
bool is_rng_support(std::string_view path);

/// Minimal JSON string escaping shared by every report writer in the
/// linter (findings, facts, the v2 report).
std::string json_escape(const std::string& s);

// ---------------------------------------------------------------------------
// Facts.
// ---------------------------------------------------------------------------

/// A function (or member-function) definition: `name` is the qualified
/// declarator chain as written (`RadioNetwork::step`), and
/// [body_begin, body_end) is the token span of its brace body.
struct FunctionFact {
  std::string name;
  int line = 0;
  std::size_t body_begin = 0;
  std::size_t body_end = 0;
};

/// One `<receiver>.split(<tag>)` / `-><tag>` call site.
struct SplitFact {
  std::string receiver;  ///< ident chain before .split; "<expr>" if complex
  std::string tag_expr;  ///< the argument tokens, space-joined
  bool tag_is_literal = false;  ///< argument is a single integer literal
  bool tag_is_name = false;     ///< argument is one (possibly ::-qualified) identifier
  bool tag_has_call = false;    ///< argument contains a function call
  bool resolved = false;        ///< value holds the constant tag
  std::uint64_t value = 0;
  int line = 0;
  std::string function;  ///< enclosing definition; empty at file/class scope
};

/// An `Rng x(<arg>)` / `Rng(<arg>)` construction.
struct RngCtorFact {
  std::string arg_expr;
  bool literal_seed = false;  ///< argument is a single integer literal
  std::uint64_t value = 0;    ///< valid iff literal_seed
  int line = 0;
  std::string function;
};

/// A `constexpr ... kName = <integer literal>;` definition — the raw
/// material of the split-tag registry (support/rng_tags.h).
struct TagConstFact {
  std::string name;
  std::uint64_t value = 0;
  int line = 0;
};

/// A `Type* name = nullptr` member/field declaration (the optional-
/// observability idiom) plus plain `Type* name` declarations, so the
/// hub-null-check pass can build its cross-TU field set and per-file
/// shadowing set without re-walking tokens.
struct PointerFieldFact {
  std::string type;
  std::string name;
  bool null_default = false;  ///< declared `= nullptr`
  int line = 0;
};

/// One access to a class member (trailing-underscore identifier) inside a
/// function body. Extracted only under src/radio — the shard-safety
/// analysis' scope — to keep the facts DB small.
struct MemberAccessFact {
  std::string member;
  std::string access;  ///< "read" | "write" | "call"
  int line = 0;
  std::string function;
};

/// Everything stage one knows about one translation unit.
struct FileFacts {
  std::string path;
  std::vector<IncludeDirective> includes;  ///< shared include extraction:
                                           ///< every include-family rule
                                           ///< reads this one vector
  std::vector<FunctionFact> functions;
  std::vector<SplitFact> splits;
  std::vector<RngCtorFact> rng_ctors;
  std::vector<TagConstFact> tag_consts;
  std::vector<PointerFieldFact> pointer_fields;
  std::vector<MemberAccessFact> member_accesses;
};

/// The cross-TU facts database, parallel to the lexed file list.
struct FactsDb {
  std::vector<FileFacts> files;
};

/// Extracts one file's facts from its token stream.
FileFacts extract_facts(const LexedFile& f);

/// Extracts facts for every lexed file, then resolves named split tags
/// against the global constant table (a tag `kFaultStream` used in one TU
/// and defined in another resolves here — the cross-TU step).
FactsDb build_facts(const std::vector<LexedFile>& lexed);

/// Serializes the database as the `radiomc.facts/v1` JSON document
/// (`radiomc_lint --facts-out`).
void write_facts_json(std::ostream& os, const FactsDb& db);

/// Parses a C++ integer literal token (decimal/hex/octal, u/l suffixes;
/// digit separators were already stripped by the lexer). Returns false on
/// floats and malformed text.
bool parse_int_literal(std::string_view text, std::uint64_t* out);

}  // namespace radiomc::lint
