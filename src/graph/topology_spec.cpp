#include "graph/topology_spec.h"

#include <sstream>
#include <vector>

#include "graph/generators.h"
#include "support/parse.h"
#include "support/util.h"

namespace radiomc::gen {

namespace {

std::vector<std::string> split(const std::string& s, char delim) {
  std::vector<std::string> out;
  std::stringstream ss(s);
  std::string item;
  while (std::getline(ss, item, delim)) out.push_back(item);
  return out;
}

std::uint64_t field_u64(const std::string& s, const std::string& what) {
  require(!s.empty(), "topology spec: missing " + what);
  const std::optional<std::uint64_t> v = parse_u64(s);
  require(v.has_value(), "topology spec: bad " + what + " '" + s + "'");
  return *v;
}

double field_f64(const std::string& s, const std::string& what) {
  require(!s.empty(), "topology spec: missing " + what);
  const std::optional<double> v = parse_f64(s);
  require(v.has_value(), "topology spec: bad " + what + " '" + s + "'");
  return *v;
}

std::pair<NodeId, NodeId> parse_dims(const std::string& s) {
  const auto xs = split(s, 'x');
  require(xs.size() == 2, "topology spec: dims must look like RxC");
  return {static_cast<NodeId>(field_u64(xs[0], "rows")),
          static_cast<NodeId>(field_u64(xs[1], "cols"))};
}

void arity(const std::vector<std::string>& parts, std::size_t lo,
           std::size_t hi) {
  require(parts.size() >= lo && parts.size() <= hi,
          "topology spec: wrong number of ':'-fields in '" + parts[0] + "'");
}

}  // namespace

Graph from_spec(const std::string& spec, Rng& rng) {
  const auto parts = split(spec, ':');
  require(!parts.empty() && !parts[0].empty(), "topology spec: empty");
  const std::string& kind = parts[0];

  if (kind == "path") {
    arity(parts, 2, 2);
    return path(static_cast<NodeId>(field_u64(parts[1], "n")));
  }
  if (kind == "cycle") {
    arity(parts, 2, 2);
    return cycle(static_cast<NodeId>(field_u64(parts[1], "n")));
  }
  if (kind == "complete") {
    arity(parts, 2, 2);
    return complete(static_cast<NodeId>(field_u64(parts[1], "n")));
  }
  if (kind == "star") {
    arity(parts, 2, 2);
    return star(static_cast<NodeId>(field_u64(parts[1], "n")));
  }
  if (kind == "grid") {
    arity(parts, 2, 2);
    const auto [r, c] = parse_dims(parts[1]);
    return grid(r, c);
  }
  if (kind == "torus") {
    arity(parts, 2, 2);
    const auto [r, c] = parse_dims(parts[1]);
    return torus(r, c);
  }
  if (kind == "hypercube") {
    arity(parts, 2, 2);
    return hypercube(
        static_cast<std::uint32_t>(field_u64(parts[1], "dims")));
  }
  if (kind == "tree") {
    arity(parts, 3, 3);
    return rary_tree(static_cast<NodeId>(field_u64(parts[1], "n")),
                     static_cast<std::uint32_t>(field_u64(parts[2], "r")));
  }
  if (kind == "random-tree") {
    arity(parts, 2, 2);
    return random_tree(static_cast<NodeId>(field_u64(parts[1], "n")), rng);
  }
  if (kind == "caterpillar") {
    arity(parts, 3, 3);
    return caterpillar(static_cast<NodeId>(field_u64(parts[1], "spine")),
                       static_cast<NodeId>(field_u64(parts[2], "legs")));
  }
  if (kind == "barbell") {
    arity(parts, 3, 3);
    return barbell(static_cast<NodeId>(field_u64(parts[1], "clique")),
                   static_cast<NodeId>(field_u64(parts[2], "bridge")));
  }
  if (kind == "gnp") {
    arity(parts, 3, 3);
    return gnp_connected(static_cast<NodeId>(field_u64(parts[1], "n")),
                         field_f64(parts[2], "p"), rng);
  }
  if (kind == "udg") {
    arity(parts, 2, 3);
    const NodeId n = static_cast<NodeId>(field_u64(parts[1], "n"));
    const double radius =
        parts.size() == 3 ? field_f64(parts[2], "radius")
                          : udg_connect_radius(n);
    return unit_disk_connected(n, radius, rng);
  }
  throw std::invalid_argument("topology spec: unknown family '" + kind +
                              "' — " + spec_grammar());
}

std::string spec_grammar() {
  return "path:N | cycle:N | complete:N | star:N | grid:RxC | torus:RxC | "
         "hypercube:D | tree:N:R | random-tree:N | caterpillar:S:L | "
         "barbell:C:B | gnp:N:P | udg:N[:RADIUS]";
}

}  // namespace radiomc::gen
