#include "lint/facts.h"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <map>
#include <ostream>
#include <set>
#include <sstream>

namespace radiomc::lint {

// ---------------------------------------------------------------------------
// Path helpers (moved here from rules.cpp so every pass shares one copy).
// ---------------------------------------------------------------------------

bool in_dir(std::string_view path, std::string_view dir) {
  std::string needle = std::string(dir) + "/";
  if (path.substr(0, needle.size()) == needle) return true;
  std::string anywhere = "/" + needle;
  return path.find(anywhere) != std::string_view::npos;
}

std::string_view basename_of(std::string_view path) {
  auto pos = path.find_last_of('/');
  return pos == std::string_view::npos ? path : path.substr(pos + 1);
}

bool is_rng_support(std::string_view path) {
  const std::string_view base = basename_of(path);
  return in_dir(path, "src/support") && (base == "rng.h" || base == "rng.cpp");
}

bool is_header(std::string_view path) {
  return path.size() >= 2 && (path.substr(path.size() - 2) == ".h" ||
                              (path.size() >= 4 &&
                               path.substr(path.size() - 4) == ".hpp"));
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

bool parse_int_literal(std::string_view text, std::uint64_t* out) {
  std::size_t end = text.size();
  while (end > 0) {
    char c = text[end - 1];
    if (c == 'u' || c == 'U' || c == 'l' || c == 'L') {
      --end;
    } else {
      break;
    }
  }
  if (end == 0) return false;
  std::string_view body = text.substr(0, end);
  int base = 10;
  if (body.size() > 2 && body[0] == '0' && (body[1] == 'x' || body[1] == 'X')) {
    base = 16;
    body.remove_prefix(2);
  } else if (body.size() > 2 && body[0] == '0' &&
             (body[1] == 'b' || body[1] == 'B')) {
    base = 2;
    body.remove_prefix(2);
  } else if (body.size() > 1 && body[0] == '0') {
    base = 8;
    body.remove_prefix(1);
  } else if (body.find('.') != std::string_view::npos ||
             body.find('e') != std::string_view::npos ||
             body.find('E') != std::string_view::npos) {
    return false;  // floating literal
  }
  if (body.empty()) {  // plain "0"
    *out = 0;
    return true;
  }
  std::uint64_t value = 0;
  auto [ptr, ec] =
      std::from_chars(body.data(), body.data() + body.size(), value, base);
  if (ec != std::errc{} || ptr != body.data() + body.size()) return false;
  *out = value;
  return true;
}

namespace {

bool is_punct(const Token& t, std::string_view text) {
  return t.kind == Token::Kind::kPunct && t.text == text;
}

bool is_ident(const Token& t, std::string_view text) {
  return t.kind == Token::Kind::kIdent && t.text == text;
}

bool is_ident(const Token& t) { return t.kind == Token::Kind::kIdent; }

/// Keywords that may sit between a declarator's closing `)` and its body
/// `{` — skipped when scanning back for the function name.
bool is_declarator_suffix(const Token& t) {
  return t.kind == Token::Kind::kIdent &&
         (t.text == "const" || t.text == "noexcept" || t.text == "override" ||
          t.text == "final" || t.text == "mutable" || t.text == "try");
}

/// Control keywords whose `(...)` + `{` must not be mistaken for a
/// function definition.
bool is_control_keyword(std::string_view s) {
  return s == "if" || s == "while" || s == "for" || s == "switch" ||
         s == "catch" || s == "return" || s == "sizeof" || s == "new" ||
         s == "delete" || s == "do" || s == "else" || s == "alignas" ||
         s == "alignof" || s == "static_assert" || s == "decltype";
}

/// Walks back from a closing `)` at `close` to its opening `(`. Returns
/// the opening index, or SIZE_MAX on imbalance.
std::size_t match_back_paren(const std::vector<Token>& toks,
                             std::size_t close) {
  int depth = 0;
  for (std::size_t j = close + 1; j-- > 0;) {
    if (is_punct(toks[j], ")")) ++depth;
    if (is_punct(toks[j], "(")) {
      if (--depth == 0) return j;
    }
  }
  return static_cast<std::size_t>(-1);
}

/// Walks forward from an opening `(`/`[`/`{` at `open` to its matching
/// closer. Returns the closing index, or toks.size() on imbalance.
std::size_t match_forward(const std::vector<Token>& toks, std::size_t open,
                          std::string_view opener, std::string_view closer) {
  int depth = 0;
  for (std::size_t j = open; j < toks.size(); ++j) {
    if (is_punct(toks[j], opener)) ++depth;
    if (is_punct(toks[j], closer)) {
      if (--depth == 0) return j;
    }
  }
  return toks.size();
}

/// Collects the `A::B::name` identifier chain ending at token `end`
/// (inclusive). Returns the joined name and sets `*begin` to the chain's
/// first token index. Empty result if `end` is not an identifier.
std::string collect_name_chain_back(const std::vector<Token>& toks,
                                    std::size_t end, std::size_t* begin) {
  if (!is_ident(toks[end])) return {};
  std::size_t first = end;
  while (first >= 2 && is_punct(toks[first - 1], "::") &&
         is_ident(toks[first - 2])) {
    first -= 2;
  }
  std::string name;
  for (std::size_t j = first; j <= end; ++j) name += toks[j].text;
  *begin = first;
  return name;
}

/// Given the index of a body-opening `{`, determines whether it opens a
/// function definition and if so returns its (possibly qualified) name.
/// Handles constructor init lists by walking back over `, member(expr)`
/// items to the parameter list. Returns "" for non-function braces
/// (classes, namespaces, init lists, control statements, lambdas).
std::string function_name_before(const std::vector<Token>& toks,
                                 std::size_t brace) {
  if (brace == 0) return {};
  std::size_t j = brace - 1;
  while (j > 0 && is_declarator_suffix(toks[j])) --j;
  // Walk back through constructor init-list items: name(args) [, ...]* : params)
  for (int hops = 0; hops < 256; ++hops) {
    if (!is_punct(toks[j], ")")) return {};
    std::size_t open = match_back_paren(toks, j);
    if (open == static_cast<std::size_t>(-1) || open == 0) return {};
    std::size_t begin = 0;
    std::string name = collect_name_chain_back(toks, open - 1, &begin);
    if (name.empty()) return {};
    if (is_control_keyword(toks[begin].text)) return {};
    if (begin == 0) return name;
    const Token& prev = toks[begin - 1];
    if (is_punct(prev, ",") || is_punct(prev, ":")) {
      // Init-list member; the function head is further back. A `::`
      // already folded into the chain, so a single `:` here is the
      // ctor-init-list introducer and `,` separates members.
      if (begin < 2) return {};
      j = begin - 2;
      while (j > 0 && is_declarator_suffix(toks[j])) --j;
      continue;
    }
    return name;
  }
  return {};
}

/// Builds the receiver chain (`cfg.trace`, `rng_`, `ns::obj.rng`) ending
/// just before the separator at index `sep`. Returns "<expr>" when the
/// receiver is not a plain identifier chain.
std::string receiver_chain(const std::vector<Token>& toks, std::size_t sep) {
  if (sep == 0 || !is_ident(toks[sep - 1])) return "<expr>";
  std::string out = toks[sep - 1].text;
  std::size_t j = sep - 1;
  while (j >= 2 &&
         (is_punct(toks[j - 1], ".") || is_punct(toks[j - 1], "->") ||
          is_punct(toks[j - 1], "::")) &&
        is_ident(toks[j - 2])) {
    out = toks[j - 2].text + toks[j - 1].text + out;
    j -= 2;
  }
  return out;
}

/// Mutating container/engine methods: a call through a member chain whose
/// final method is in this set counts as a *write* to the head member.
bool is_mutating_method(std::string_view m) {
  return m == "begin_slot" || m == "end_slot" || m == "wake" ||
         m == "wake_at" || m == "set_autosleep" || m == "clear" || m == "push_back" ||
         m == "emplace_back" || m == "pop_back" || m == "assign" ||
         m == "resize" || m == "reset" || m == "insert" || m == "erase" ||
         m == "next" || m == "next_below" || m == "bernoulli" ||
         m == "coin" || m == "split" || m == "swap" || m == "record" ||
         m == "advance" || m == "step";
}

}  // namespace

FileFacts extract_facts(const LexedFile& f) {
  FileFacts out;
  out.path = f.path;
  out.includes = f.includes;
  const auto& toks = f.tokens;

  // -- Pass 1: function definition spans ------------------------------------
  struct OpenScope {
    std::size_t func_index;  // index into out.functions, or SIZE_MAX
    int depth;
  };
  std::vector<OpenScope> open;
  int depth = 0;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (is_punct(toks[i], "{")) {
      ++depth;
      std::string name = function_name_before(toks, i);
      if (!name.empty()) {
        FunctionFact fn;
        fn.name = std::move(name);
        fn.line = toks[i].line;
        fn.body_begin = i + 1;
        fn.body_end = toks.size();
        out.functions.push_back(std::move(fn));
        open.push_back({out.functions.size() - 1, depth});
      }
    } else if (is_punct(toks[i], "}")) {
      if (!open.empty() && open.back().depth == depth) {
        out.functions[open.back().func_index].body_end = i;
        open.pop_back();
      }
      --depth;
    }
  }

  // Innermost enclosing function for a token index (functions are sorted
  // by body_begin; the last span containing idx wins).
  auto function_at = [&](std::size_t idx) -> const FunctionFact* {
    const FunctionFact* best = nullptr;
    for (const auto& fn : out.functions) {
      if (fn.body_begin > idx) break;
      if (idx < fn.body_end) best = &fn;
    }
    return best;
  };
  auto function_name_at = [&](std::size_t idx) -> std::string {
    const FunctionFact* fn = function_at(idx);
    return fn ? fn->name : std::string{};
  };

  // -- Pass 2: everything else ----------------------------------------------
  const bool radio_members = in_dir(f.path, "src/radio");
  for (std::size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];

    // split(tag) call sites: IDENT "split" preceded by . or -> and
    // followed by "(".
    if (is_ident(t, "split") && i + 1 < toks.size() &&
        is_punct(toks[i + 1], "(") && i > 0 &&
        (is_punct(toks[i - 1], ".") || is_punct(toks[i - 1], "->"))) {
      std::size_t close = match_forward(toks, i + 1, "(", ")");
      if (close < toks.size()) {
        SplitFact s;
        s.receiver = receiver_chain(toks, i - 1);
        s.line = t.line;
        s.function = function_name_at(i);
        bool has_args = close > i + 2;
        std::size_t nargs = close - (i + 2);
        for (std::size_t j = i + 2; j < close; ++j) {
          if (!s.tag_expr.empty()) s.tag_expr += ' ';
          s.tag_expr += toks[j].text;
          if (is_ident(toks[j]) && j + 1 < close &&
              is_punct(toks[j + 1], "(")) {
            s.tag_has_call = true;
          }
        }
        if (has_args) {
          if (nargs == 1 && toks[i + 2].kind == Token::Kind::kNumber) {
            s.tag_is_literal = true;
            s.resolved = parse_int_literal(toks[i + 2].text, &s.value);
          } else {
            // A pure `A::B::kName` chain?
            bool chain = true;
            for (std::size_t j = i + 2; j < close; ++j) {
              bool even = ((j - (i + 2)) % 2) == 0;
              if (even ? !is_ident(toks[j]) : !is_punct(toks[j], "::")) {
                chain = false;
                break;
              }
            }
            if (chain && is_ident(toks[close - 1])) s.tag_is_name = true;
          }
          out.splits.push_back(std::move(s));
        }
      }
    }

    // Rng constructions: `Rng(args)` or `Rng name(args)`.
    if (is_ident(t, "Rng") && !(i > 0 && is_punct(toks[i - 1], "::")) &&
        !(i + 1 < toks.size() && is_punct(toks[i + 1], "::"))) {
      std::size_t paren = static_cast<std::size_t>(-1);
      if (i + 1 < toks.size() && is_punct(toks[i + 1], "(")) {
        paren = i + 1;  // temporary: Rng(0xCA97)
      } else if (i + 2 < toks.size() && is_ident(toks[i + 1]) &&
                 is_punct(toks[i + 2], "(")) {
        paren = i + 2;  // declaration: Rng master(seed)
      }
      // Skip the class definition itself and declarations like
      // `Rng split(std::uint64_t tag)` — i.e. parameter lists that
      // declare types. Heuristic: an argument list containing a type
      // keyword chain ending in an identifier-identifier pair is a
      // declaration; simpler and sufficient here: skip when the list
      // contains the token `uint64_t` or `Rng`.
      if (paren != static_cast<std::size_t>(-1)) {
        std::size_t close = match_forward(toks, paren, "(", ")");
        if (close < toks.size() && close > paren + 1) {
          bool is_decl_params = false;
          for (std::size_t j = paren + 1; j < close; ++j) {
            if (is_ident(toks[j], "uint64_t") || is_ident(toks[j], "Rng") ||
                is_ident(toks[j], "uint32_t") || is_ident(toks[j], "size_t")) {
              is_decl_params = true;
              break;
            }
          }
          if (!is_decl_params) {
            RngCtorFact c;
            c.line = t.line;
            c.function = function_name_at(i);
            for (std::size_t j = paren + 1; j < close; ++j) {
              if (!c.arg_expr.empty()) c.arg_expr += ' ';
              c.arg_expr += toks[j].text;
            }
            if (close == paren + 2 &&
                toks[paren + 1].kind == Token::Kind::kNumber) {
              c.literal_seed = parse_int_literal(toks[paren + 1].text, &c.value);
            }
            out.rng_ctors.push_back(std::move(c));
          }
        }
      }
    }

    // constexpr constants: `constexpr ... NAME = <number> ;`
    if (is_ident(t, "constexpr")) {
      // Find the `=` before the next `;` at this nesting level.
      for (std::size_t j = i + 1; j + 2 < toks.size() && j < i + 12; ++j) {
        if (is_punct(toks[j], ";") || is_punct(toks[j], "{") ||
            is_punct(toks[j], "(")) {
          break;
        }
        if (is_punct(toks[j], "=") && is_ident(toks[j - 1]) &&
            toks[j + 1].kind == Token::Kind::kNumber &&
            is_punct(toks[j + 2], ";")) {
          TagConstFact k;
          k.name = toks[j - 1].text;
          k.line = toks[j - 1].line;
          if (parse_int_literal(toks[j + 1].text, &k.value)) {
            out.tag_consts.push_back(std::move(k));
          }
          break;
        }
      }
    }

    // Pointer field declarations: IDENT * IDENT [= nullptr] (; , ) })
    if (is_ident(t) && i + 2 < toks.size() && is_punct(toks[i + 1], "*") &&
        is_ident(toks[i + 2])) {
      std::size_t after = i + 3;
      PointerFieldFact p;
      p.type = t.text;
      p.name = toks[i + 2].text;
      p.line = toks[i + 2].line;
      if (after + 1 < toks.size() && is_punct(toks[after], "=") &&
          is_ident(toks[after + 1], "nullptr")) {
        p.null_default = true;
        out.pointer_fields.push_back(std::move(p));
      } else if (after < toks.size() &&
                 (is_punct(toks[after], ";") || is_punct(toks[after], ",") ||
                  is_punct(toks[after], ")") || is_punct(toks[after], "="))) {
        out.pointer_fields.push_back(std::move(p));
      }
    }

    // Member accesses (src/radio only): trailing-underscore identifiers
    // at the head of an access chain, inside a function body.
    if (radio_members && is_ident(t) && t.text.size() > 1 &&
        t.text.back() == '_' ) {
      const FunctionFact* fn = function_at(i);
      if (fn == nullptr) continue;
      // Chain head only: not preceded by `.`/`->`/`::`, and not a
      // declaration (preceded by an identifier or `>`/`*`/`&` type tail
      // is still ambiguous; declarations inside bodies are rare and
      // harmless for the report).
      if (i > 0 && (is_punct(toks[i - 1], ".") || is_punct(toks[i - 1], "->") ||
                    is_punct(toks[i - 1], "::"))) {
        continue;
      }
      MemberAccessFact m;
      m.member = t.text;
      m.line = t.line;
      m.function = fn->name;

      // Pre-increment / pre-decrement: ++x_ / --x_ (lexed as two puncts).
      bool pre_mutate = i >= 2 &&
                        ((is_punct(toks[i - 1], "+") && is_punct(toks[i - 2], "+")) ||
                         (is_punct(toks[i - 1], "-") && is_punct(toks[i - 2], "-")));

      // Walk the access chain forward: [idx]* ( . | -> ident )* tail.
      std::size_t j = i + 1;
      std::string last_method;
      bool chain_call = false;
      while (j < toks.size()) {
        if (is_punct(toks[j], "[")) {
          std::size_t close = match_forward(toks, j, "[", "]");
          if (close >= toks.size()) break;
          j = close + 1;
          continue;
        }
        if ((is_punct(toks[j], ".") || is_punct(toks[j], "->")) &&
            j + 1 < toks.size() && is_ident(toks[j + 1])) {
          last_method = toks[j + 1].text;
          j += 2;
          if (j < toks.size() && is_punct(toks[j], "(")) {
            chain_call = true;
            std::size_t close = match_forward(toks, j, "(", ")");
            if (close >= toks.size()) break;
            j = close + 1;
            // the chain may continue: a.b().c = ...
            continue;
          }
          continue;
        }
        break;
      }
      std::string tail = j < toks.size() ? toks[j].text : std::string{};
      bool assign =
          j < toks.size() &&
          toks[j].kind == Token::Kind::kPunct &&
          (tail == "=" || tail == "+=" || tail == "-=" ||
           ((tail == "|" || tail == "&" || tail == "^" || tail == "*" ||
             tail == "/" || tail == "%") &&
            j + 1 < toks.size() && is_punct(toks[j + 1], "=")));
      // Post-increment: x_++ (two puncts).
      bool post_mutate = j + 1 < toks.size() &&
                         ((is_punct(toks[j], "+") && is_punct(toks[j + 1], "+")) ||
                          (is_punct(toks[j], "-") && is_punct(toks[j + 1], "-")));
      if (tail == "==") assign = false;

      if (pre_mutate || post_mutate || assign) {
        m.access = "write";
      } else if (chain_call) {
        m.access = is_mutating_method(last_method) ? "write" : "call";
      } else {
        m.access = "read";
      }
      out.member_accesses.push_back(std::move(m));
    }
  }
  return out;
}

FactsDb build_facts(const std::vector<LexedFile>& lexed) {
  FactsDb db;
  db.files.reserve(lexed.size());
  for (const auto& f : lexed) db.files.push_back(extract_facts(f));

  // Cross-TU tag resolution: map every named constant to its value, then
  // resolve `split(kName)` / `split(ns::kName)` sites. Ambiguous names
  // (same identifier, different values in different TUs) stay unresolved
  // rather than guessing.
  std::map<std::string, std::pair<std::uint64_t, int>> consts;  // name -> (value, defs)
  for (const auto& f : db.files) {
    for (const auto& k : f.tag_consts) {
      auto it = consts.find(k.name);
      if (it == consts.end()) {
        consts.emplace(k.name, std::make_pair(k.value, 1));
      } else if (it->second.first != k.value) {
        ++it->second.second;
      }
    }
  }
  for (auto& f : db.files) {
    for (auto& s : f.splits) {
      if (!s.tag_is_name) continue;
      auto pos = s.tag_expr.rfind(' ');
      std::string leaf =
          pos == std::string::npos ? s.tag_expr : s.tag_expr.substr(pos + 1);
      auto it = consts.find(leaf);
      if (it != consts.end() && it->second.second == 1) {
        s.resolved = true;
        s.value = it->second.first;
      }
    }
  }
  return db;
}

namespace {

std::string hex64(std::uint64_t v) {
  std::ostringstream os;
  os << "0x" << std::hex << v;
  return os.str();
}

}  // namespace

void write_facts_json(std::ostream& os, const FactsDb& db) {
  os << "{\n  \"schema\": \"radiomc.facts/v1\",\n  \"files\": [";
  bool first_file = true;
  for (const auto& f : db.files) {
    if (!first_file) os << ",";
    first_file = false;
    os << "\n    {\"path\": \"" << json_escape(f.path) << "\"";
    auto list = [&](const char* key, auto const& items, auto&& emit) {
      if (items.empty()) return;
      os << ",\n     \"" << key << "\": [";
      bool first = true;
      for (const auto& item : items) {
        if (!first) os << ", ";
        first = false;
        emit(item);
      }
      os << "]";
    };
    list("includes", f.includes, [&](const IncludeDirective& inc) {
      os << "{\"path\": \"" << json_escape(inc.path)
         << "\", \"line\": " << inc.line
         << ", \"angled\": " << (inc.angled ? "true" : "false") << "}";
    });
    list("functions", f.functions, [&](const FunctionFact& fn) {
      os << "{\"name\": \"" << json_escape(fn.name)
         << "\", \"line\": " << fn.line << "}";
    });
    list("splits", f.splits, [&](const SplitFact& s) {
      os << "{\"receiver\": \"" << json_escape(s.receiver)
         << "\", \"tag\": \"" << json_escape(s.tag_expr) << "\", \"kind\": \""
         << (s.tag_is_literal ? "literal"
                              : (s.tag_is_name ? "name"
                                               : (s.tag_has_call ? "call"
                                                                 : "expr")))
         << "\"";
      if (s.resolved) os << ", \"value\": \"" << hex64(s.value) << "\"";
      os << ", \"line\": " << s.line;
      if (!s.function.empty()) {
        os << ", \"function\": \"" << json_escape(s.function) << "\"";
      }
      os << "}";
    });
    list("rng_ctors", f.rng_ctors, [&](const RngCtorFact& c) {
      os << "{\"arg\": \"" << json_escape(c.arg_expr) << "\", \"literal\": "
         << (c.literal_seed ? "true" : "false");
      if (c.literal_seed) os << ", \"value\": \"" << hex64(c.value) << "\"";
      os << ", \"line\": " << c.line << "}";
    });
    list("tag_constants", f.tag_consts, [&](const TagConstFact& k) {
      os << "{\"name\": \"" << json_escape(k.name) << "\", \"value\": \""
         << hex64(k.value) << "\", \"line\": " << k.line << "}";
    });
    list("pointer_fields", f.pointer_fields, [&](const PointerFieldFact& p) {
      os << "{\"type\": \"" << json_escape(p.type) << "\", \"name\": \""
         << json_escape(p.name)
         << "\", \"null_default\": " << (p.null_default ? "true" : "false")
         << "}";
    });
    list("member_accesses", f.member_accesses, [&](const MemberAccessFact& m) {
      os << "{\"member\": \"" << json_escape(m.member) << "\", \"access\": \""
         << m.access << "\", \"line\": " << m.line << ", \"function\": \""
         << json_escape(m.function) << "\"}";
    });
    os << "}";
  }
  os << "\n  ]\n}\n";
}

}  // namespace radiomc::lint
