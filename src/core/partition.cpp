#include "core/partition.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <unordered_set>

namespace gp {

wgt_t edge_cut(const CsrGraph& g, const Partition& p) {
  wgt_t cut2 = 0;  // each cut edge counted twice (once per arc)
  const vid_t n = g.num_vertices();
  for (vid_t v = 0; v < n; ++v) {
    const auto nbrs = g.neighbors(v);
    const auto wts = g.neighbor_weights(v);
    const part_t pv = p.where[static_cast<std::size_t>(v)];
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      if (p.where[static_cast<std::size_t>(nbrs[i])] != pv) cut2 += wts[i];
    }
  }
  return cut2 / 2;
}

std::vector<wgt_t> partition_weights(const CsrGraph& g, const Partition& p) {
  std::vector<wgt_t> w(static_cast<std::size_t>(p.k), 0);
  const vid_t n = g.num_vertices();
  for (vid_t v = 0; v < n; ++v) {
    w[static_cast<std::size_t>(p.where[static_cast<std::size_t>(v)])] +=
        g.vertex_weight(v);
  }
  return w;
}

double partition_balance(const CsrGraph& g, const Partition& p) {
  const auto w = partition_weights(g, p);
  const wgt_t total = g.total_vertex_weight();
  if (p.k <= 0 || total == 0) return 1.0;
  const double ideal = static_cast<double>(total) / static_cast<double>(p.k);
  wgt_t mx = 0;
  for (const auto& x : w) mx = std::max(mx, x);
  return static_cast<double>(mx) / ideal;
}

wgt_t communication_volume(const CsrGraph& g, const Partition& p) {
  wgt_t vol = 0;
  const vid_t n = g.num_vertices();
  std::unordered_set<part_t> ext;
  for (vid_t v = 0; v < n; ++v) {
    ext.clear();
    const part_t pv = p.where[static_cast<std::size_t>(v)];
    for (const vid_t u : g.neighbors(v)) {
      const part_t pu = p.where[static_cast<std::size_t>(u)];
      if (pu != pv) ext.insert(pu);
    }
    vol += static_cast<wgt_t>(ext.size());
  }
  return vol;
}

vid_t boundary_size(const CsrGraph& g, const Partition& p) {
  vid_t cnt = 0;
  const vid_t n = g.num_vertices();
  for (vid_t v = 0; v < n; ++v) {
    const part_t pv = p.where[static_cast<std::size_t>(v)];
    for (const vid_t u : g.neighbors(v)) {
      if (p.where[static_cast<std::size_t>(u)] != pv) {
        ++cnt;
        break;
      }
    }
  }
  return cnt;
}

std::string validate_partition(const CsrGraph& g, const Partition& p) {
  return validate_partition(g.num_vertices(), p);
}

std::string validate_partition(vid_t n, const Partition& p) {
  std::ostringstream err;
  if (p.k <= 0) return "k <= 0";
  if (p.where.size() != static_cast<std::size_t>(n)) {
    err << "where size " << p.where.size() << " != n = " << n;
    return err.str();
  }
  for (std::size_t v = 0; v < p.where.size(); ++v) {
    if (p.where[v] < 0 || p.where[v] >= p.k) {
      err << "where[" << v << "] = " << p.where[v] << " out of [0," << p.k
          << ")";
      return err.str();
    }
  }
  return {};
}

std::string validate_partition(const CsrGraph& g, const Partition& p,
                               wgt_t stored_cut, double stored_balance) {
  std::string err = validate_partition(g, p);
  if (!err.empty()) return err;
  std::ostringstream os;
  const wgt_t cut = edge_cut(g, p);
  if (cut != stored_cut) {
    os << "stored cut " << stored_cut << " != recomputed cut " << cut;
    return os.str();
  }
  const double balance = partition_balance(g, p);
  if (std::abs(balance - stored_balance) > 1e-9 * std::max(1.0, balance)) {
    os << "stored balance " << stored_balance << " != recomputed balance "
       << balance;
    return os.str();
  }
  return {};
}


wgt_t max_part_weight(wgt_t total_weight, part_t k, double eps) {
  const double ideal =
      static_cast<double>(total_weight) / static_cast<double>(k);
  return static_cast<wgt_t>(std::ceil(ideal * (1.0 + eps)));
}

wgt_t min_part_weight(wgt_t total_weight, part_t k, double eps) {
  const double ideal =
      static_cast<double>(total_weight) / static_cast<double>(k);
  return std::max<wgt_t>(
      1, static_cast<wgt_t>(std::floor(ideal * (1.0 - eps))));
}

std::vector<MoveProposal> replay_moves(std::span<const wgt_t> vwgt,
                                       std::vector<MoveProposal> moves,
                                       std::vector<wgt_t>& pw, wgt_t max_pw,
                                       wgt_t min_pw) {
  std::sort(moves.begin(), moves.end(),
            [](const MoveProposal& a, const MoveProposal& b) {
              if (a.gain != b.gain) return a.gain > b.gain;
              return a.v < b.v;
            });
  std::size_t committed = 0;
  for (const MoveProposal& mv : moves) {
    const wgt_t vw = vwgt[static_cast<std::size_t>(mv.v)];
    wgt_t& to = pw[static_cast<std::size_t>(mv.to)];
    wgt_t& from = pw[static_cast<std::size_t>(mv.from)];
    if (to + vw > max_pw) continue;
    if (from - vw < min_pw && from <= max_pw) continue;
    from -= vw;
    to += vw;
    moves[committed++] = mv;
  }
  moves.resize(committed);
  return moves;
}

}  // namespace gp
