#include "lint/layers.h"

#include <algorithm>
#include <map>
#include <set>
#include <sstream>
#include <utility>

namespace radiomc::lint {

namespace {

std::vector<std::string> split_ws(const std::string& line) {
  std::vector<std::string> out;
  std::istringstream is(line);
  std::string word;
  while (is >> word) out.push_back(word);
  return out;
}

/// True iff one of `a`, `b` is a whole-component suffix of the other
/// (`/repo/src/radio` and `src/radio`, or `src/radio` and `radio`).
bool tail_match(std::string_view a, std::string_view b) {
  if (a.size() < b.size()) std::swap(a, b);
  return a.ends_with(b) &&
         (a.size() == b.size() || a[a.size() - b.size() - 1] == '/');
}

/// True iff some leading run of `path`'s directories tail-matches `dir`:
/// a linted `x/src/radio/a.cpp` by the whole directory, an include
/// `radio/a.h` by the directory's last component.
bool below(std::string_view path, std::string_view dir) {
  for (std::size_t slash = path.find('/'); slash != std::string_view::npos;
       slash = path.find('/', slash + 1)) {
    if (slash > 0 && tail_match(path.substr(0, slash), dir)) return true;
  }
  return false;
}

}  // namespace

LayerManifest parse_layer_manifest(const std::string& text) {
  LayerManifest m;
  std::map<std::string, int> declared_at;  // layer -> first decl line
  std::set<std::pair<std::string, std::string>> seen_edges;
  std::istringstream is(text);
  std::string line;
  int lineno = 0;
  while (std::getline(is, line)) {
    ++lineno;
    auto hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    auto words = split_ws(line);
    if (words.empty()) continue;
    if (words[0] == "layer") {
      if (words.size() < 3) {
        m.errors.push_back(
            {lineno, "'layer' needs a name and at least one directory "
                     "(layer <name> <dir> [<dir>...])"});
        continue;
      }
      auto it = declared_at.find(words[1]);
      if (it != declared_at.end()) {
        m.errors.push_back({lineno, "layer '" + words[1] +
                                        "' redeclared (first declared on line " +
                                        std::to_string(it->second) + ")"});
        continue;
      }
      declared_at.emplace(words[1], lineno);
      LayerDecl d;
      d.name = words[1];
      d.line = lineno;
      for (auto w = words.begin() + 2; w != words.end(); ++w) {
        LayerEntry e{LayerEntry::Kind::kDir, *w};
        const std::size_t glob = w->find_first_of("*?[");
        if (glob != std::string::npos) {
          if (glob + 3 != w->size() || !w->ends_with("/*.h")) {
            m.errors.push_back(
                {lineno, "layer '" + d.name + "': unsupported glob '" + *w +
                             "' (the only glob is '<dir>/*.h', the headers "
                             "of one directory)"});
            continue;
          }
          e = {LayerEntry::Kind::kHeaders, w->substr(0, glob - 1)};
        } else if (basename_of(*w).find('.', 1) != std::string_view::npos) {
          e.kind = LayerEntry::Kind::kFile;
        }
        d.entries.push_back(std::move(e));
      }
      m.layers.push_back(std::move(d));
    } else if (words[0] == "allow") {
      if (words.size() != 4 || words[2] != "->") {
        m.errors.push_back(
            {lineno, "'allow' needs the form 'allow <from> -> <to>'"});
        continue;
      }
      if (words[1] == words[3]) {
        m.errors.push_back(
            {lineno, "self edge '" + words[1] +
                         " -> " + words[3] +
                         "' is implicit; remove it from the manifest"});
        continue;
      }
      if (!seen_edges.emplace(words[1], words[3]).second) {
        m.errors.push_back({lineno, "edge '" + words[1] + " -> " + words[3] +
                                        "' declared twice"});
        continue;
      }
      m.edges.push_back({words[1], words[3], lineno});
    } else {
      m.errors.push_back({lineno, "unknown directive '" + words[0] +
                                      "' (expected 'layer' or 'allow')"});
    }
  }
  // References are validated after the whole file is read so declaration
  // order does not matter.
  for (const auto& e : m.edges) {
    for (const auto* name : {&e.from, &e.to}) {
      if (declared_at.find(*name) == declared_at.end()) {
        m.errors.push_back(
            {e.line, "allow references undeclared layer '" + *name + "'"});
      }
    }
  }
  return m;
}

std::string layer_of(const LayerManifest& manifest, std::string_view path) {
  if (path.find('/') == std::string_view::npos) return {};
  const LayerDecl* best = nullptr;
  std::pair<LayerEntry::Kind, std::size_t> best_rank;
  for (const auto& l : manifest.layers) {
    for (const auto& e : l.entries) {
      bool hit = false;
      switch (e.kind) {
        case LayerEntry::Kind::kDir: hit = below(path, e.path); break;
        case LayerEntry::Kind::kHeaders:
          hit = path.ends_with(".h") &&
                tail_match(path.substr(0, path.rfind('/')), e.path);
          break;
        case LayerEntry::Kind::kFile: hit = tail_match(path, e.path); break;
      }
      const std::pair rank{e.kind, e.path.size()};
      if (hit && (best == nullptr || rank > best_rank)) {
        best = &l;
        best_rank = rank;
      }
    }
  }
  return best == nullptr ? std::string() : best->name;
}

namespace {

struct CycleFinder {
  const std::map<std::string, std::vector<std::string>>& adj;
  std::map<std::string, int> color;  // 0 white, 1 grey, 2 black
  std::vector<std::string> stack;
  std::vector<std::string> cycle;

  bool dfs(const std::string& u) {
    color[u] = 1;
    stack.push_back(u);
    auto it = adj.find(u);
    if (it != adj.end()) {
      for (const auto& v : it->second) {
        int c = color.count(v) ? color[v] : 0;
        if (c == 1) {
          auto pos = std::find(stack.begin(), stack.end(), v);
          cycle.assign(pos, stack.end());
          cycle.push_back(v);
          return true;
        }
        if (c == 0 && dfs(v)) return true;
      }
    }
    stack.pop_back();
    color[u] = 2;
    return false;
  }
};

}  // namespace

std::vector<Finding> check_layers(const LayerManifest& manifest,
                                  const std::string& manifest_name,
                                  const FactsDb& facts) {
  std::vector<Finding> out;
  auto report = [&](const std::string& file, int line, std::string msg) {
    Finding f;
    f.rule = "layer-dag";
    f.file = file;
    f.line = line;
    f.message = std::move(msg);
    out.push_back(std::move(f));
  };

  for (const auto& e : manifest.errors) {
    report(manifest_name, e.line, "manifest parse error: " + e.message);
  }

  // Declared-graph acyclicity. Edges point from includer to includee, so
  // a cycle means two layers each permitted to include the other.
  std::map<std::string, std::vector<std::string>> adj;
  std::map<std::pair<std::string, std::string>, int> edge_line;
  for (const auto& e : manifest.edges) {
    adj[e.from].push_back(e.to);
    edge_line[{e.from, e.to}] = e.line;
  }
  for (auto& [k, v] : adj) std::sort(v.begin(), v.end());
  CycleFinder cf{adj, {}, {}, {}};
  for (const auto& l : manifest.layers) {
    if ((cf.color.count(l.name) ? cf.color[l.name] : 0) == 0 &&
        cf.dfs(l.name)) {
      break;
    }
  }
  if (!cf.cycle.empty()) {
    std::string path;
    for (std::size_t i = 0; i < cf.cycle.size(); ++i) {
      if (i) path += " -> ";
      path += cf.cycle[i];
    }
    int line = 0;
    if (cf.cycle.size() >= 2) {
      auto it = edge_line.find({cf.cycle[cf.cycle.size() - 2], cf.cycle.back()});
      if (it != edge_line.end()) line = it->second;
    }
    report(manifest_name, line,
           "declared layer graph has a cycle: " + path +
               " — the manifest is a DAG contract; break one edge");
  }

  // Actual include edges vs the declaration.
  std::set<std::pair<std::string, std::string>> allowed;
  for (const auto& e : manifest.edges) allowed.emplace(e.from, e.to);
  for (const auto& f : facts.files) {
    std::string from = layer_of(manifest, f.path);
    for (const auto& inc : f.includes) {
      if (inc.angled) continue;  // system/third-party headers
      std::string to = layer_of(manifest, inc.path);
      if (to.empty()) continue;  // not a layered header
      if (from.empty()) {
        report(f.path, inc.line,
               "file is not covered by any layer in " + manifest_name +
                   " but includes layered header \"" + inc.path +
                   "\" — add its directory to a layer");
        break;  // one finding per unmapped file is enough
      }
      if (to == from) continue;
      if (allowed.count({from, to}) == 0) {
        report(f.path, inc.line,
               "include edge " + from + " -> " + to + " (\"" + inc.path +
                   "\") is not declared in " + manifest_name +
                   " — either the include or the manifest is wrong");
      }
    }
  }

  return out;
}

}  // namespace radiomc::lint
