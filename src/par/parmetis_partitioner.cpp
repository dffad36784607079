#include "par/parmetis_partitioner.hpp"

#include <algorithm>
#include <memory>
#include <optional>
#include <utility>

#include "core/distribution.hpp"
#include "core/matching.hpp"
#include "core/vcycle.hpp"
#include "par/comm.hpp"
#include "serial/initpart_engine.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace gp {

namespace {

/// Size of a ghost-state exchange on one level's graph and distribution:
/// the largest per-rank boundary-vertex count and the largest per-rank
/// number of neighbouring ranks.
struct GhostProfile {
  std::uint64_t max_items = 0;
  std::uint64_t max_msgs = 0;
};

/// One level's rank distribution (rebuilt per level) and the ghost
/// exchange on the level graph it splits: set by the level's first ghost
/// charge and reused by the rest, since a level's graph never changes
/// once built.
struct LevelDist {
  Distribution dist;
  std::optional<GhostProfile> ghost;
};

struct MatchRequest {
  vid_t v, u;  ///< v requests to match u (owner of u decides)
  wgt_t w;
};

/// A vertex that has an outstanding remote match request: not matched,
/// but not grantable to other requesters either (prevents the classic
/// A-requests-B-while-C-is-granted-A inconsistency).
inline constexpr vid_t kPendingVid = -2;

struct Grant {
  vid_t v, u;
};

struct CmapMsg {
  vid_t follower;
  vid_t coarse_id;
};

/// Sends each non-empty per-destination batch as one message.
template <typename T>
void send_batches(Mailbox& mb, const std::vector<std::vector<T>>& out) {
  for (std::size_t dst = 0; dst < out.size(); ++dst) {
    if (!out[dst].empty()) mb.send(static_cast<int>(dst), out[dst]);
  }
}

/// Every rank sends one message to each neighbouring rank, carrying its
/// boundary vertices.  A boundary vertex is counted once, however many
/// neighbouring ranks it has, so a vertex bordering several ranks is
/// undercounted.  (Data itself is read from the shared arrays afterwards
/// — in-process simulation of the ghost update.)
GhostProfile ghost_profile(const CsrGraph& g, const Distribution& dist) {
  const int P = static_cast<int>(dist.vtxdist.size()) - 1;
  GhostProfile prof;
  std::vector<char> dests(static_cast<std::size_t>(P));
  for (int r = 0; r < P; ++r) {
    const vid_t lo = dist.begin(r), hi = dist.end(r);
    std::uint64_t items = 0;
    std::fill(dests.begin(), dests.end(), 0);
    for (vid_t v = lo; v < hi; ++v) {
      bool boundary = false;
      for (const vid_t u : g.neighbors(v)) {
        if (u >= lo && u < hi) continue;
        boundary = true;
        dests[static_cast<std::size_t>(dist.owner(u))] = 1;
      }
      if (boundary) ++items;
    }
    std::uint64_t msgs = 0;
    for (const char d : dests) msgs += d;
    prof.max_items = std::max(prof.max_items, items);
    prof.max_msgs = std::max(prof.max_msgs, msgs);
  }
  return prof;
}

/// A matched pair's leader is its lower id.  Ranks own increasing id
/// blocks, so that is the lower-rank endpoint, and leaders numbered in
/// vertex order get exactly the labels build_cmap_serial gives them.
bool is_leader(const std::vector<vid_t>& match, vid_t v) {
  return v <= match[static_cast<std::size_t>(v)];
}

/// The ParMetis kernels on the simulated message-passing layer, as a
/// backend of the shared V-cycle.  Level i's graph is block-distributed by
/// dists_[i]; the matching numbers coarse vertices rank by rank, which
/// fixes the next level's distribution.  Received records pass defensive
/// bounds checks before they touch shared arrays — a garbled payload (a
/// `payload` fault rule) is discarded like a lost message and the loss
/// recovery (pending revert, asymmetric-match repair, cmap resend) heals
/// it.  In-range garble survives delivery and is caught by the skeleton's
/// audits instead.
class ParMetisBackend final : public VcycleBackend {
 public:
  ParMetisBackend(const PartitionOptions& opts, SimComm& comm,
                  FaultInjector* injector, PartitionResult& res)
      : VcycleBackend({"par/coarsen", "par/initpart", "par/uncoarsen",
                       /*refine_attempts=*/1,
                       /*coarsest_refine=*/Phase::kUncoarsen},
                      &res.ledger),
        opts_(opts),
        comm_(comm),
        injector_(injector),
        health_(res.health),
        P_(comm.ranks()),
        discards_(static_cast<std::size_t>(P_), 0) {}

  void begin(const CsrGraph& g) override {
    dists_.assign(1, {Distribution::block(g.num_vertices(), P_), {}});
  }

  MatchResult match(const CsrGraph& g, int level) override;
  CsrGraph contract(const CsrGraph& fine, const MatchResult& m,
                    int level) override;
  Partition initial_partition(const CsrGraph& g, VcycleLevels&) override;
  void refine(const CsrGraph& g, Partition& p, GainCache& cache,
              RefineSite site) override;
  std::string refine_name(RefineSite site) const override {
    return "uncoarsen/refine/L" + std::to_string(site.level);
  }

  void build_cache(const CsrGraph& g, const std::vector<part_t>& where,
                   GainCache& cache, RefineSite site) override {
    build_gain_cache(
        runner(site.level),
        "uncoarsen/gaincache-build/L" + std::to_string(site.level), g, where,
        opts_.k, cache);
  }

  GainCache project_cache(const CsrGraph& fine,
                          const std::vector<part_t>& fine_where,
                          const std::vector<vid_t>& cmap,
                          const GainCache& coarse, int level) override {
    return project_gain_cache(
        runner(level), "uncoarsen/gaincache-project/L" + std::to_string(level),
        coarse, fine, fine_where, cmap, opts_.k);
  }

  std::vector<part_t> project(const CsrGraph& fine,
                              const std::vector<vid_t>& cmap,
                              const std::vector<part_t>& coarse_where,
                              int level) override {
    // Leaders send part labels to cross-rank followers.
    const std::string L = "/L" + std::to_string(level);
    std::vector<part_t> where(static_cast<std::size_t>(fine.num_vertices()));
    runner(level).run(
        "uncoarsen/project" + L, fine.num_vertices(),
        [&](int, vid_t b, vid_t e) -> std::uint64_t {
          for (vid_t v = b; v < e; ++v) {
            where[static_cast<std::size_t>(v)] = coarse_where[
                static_cast<std::size_t>(cmap[static_cast<std::size_t>(v)])];
          }
          return static_cast<std::uint64_t>(e - b);
        });
    charge_ghost_exchange(fine, level, "project" + L, sizeof(part_t));
    return where;
  }

 private:
  /// Bounded recovery: how many resend rounds a lost cmap message gets
  /// before the run aborts with CommFailure.
  static constexpr int kMaxResendRounds = 4;

  [[nodiscard]] const Distribution& level_dist(int level) const {
    return dists_[static_cast<std::size_t>(level)].dist;
  }
  /// The runner of level `level`'s steps.
  [[nodiscard]] RankRunner runner(int level) const {
    return {comm_, level_dist(level)};
  }
  /// Meters one ghost-state exchange on level `level`'s graph `g`.
  void charge_ghost_exchange(const CsrGraph& g, int level,
                             const std::string& label,
                             std::size_t elem_bytes);
  /// Moves the receive-side rejects, tallied per rank inside supersteps
  /// (one slot per rank: race-free), into the health record.
  void drain_discards(const std::string& where);

  const PartitionOptions& opts_;
  SimComm& comm_;
  FaultInjector* injector_;
  RunHealth& health_;
  int P_;
  std::vector<LevelDist> dists_;  ///< dists_[i]: level i's distribution
  std::vector<std::uint64_t> discards_;
};

void ParMetisBackend::drain_discards(const std::string& where) {
  std::uint64_t total = 0;
  for (auto& d : discards_) {
    total += d;
    d = 0;
  }
  if (total == 0) return;
  health_.payload_discards += total;
  health_.degraded = true;
  health_.note("parmetis: discarded " + std::to_string(total) +
               " malformed record(s) in " + where + " (garbled payload)");
}

void ParMetisBackend::charge_ghost_exchange(const CsrGraph& g, int level,
                                            const std::string& label,
                                            std::size_t elem_bytes) {
  if (!ledger()) return;
  LevelDist& d = dists_[static_cast<std::size_t>(level)];
  if (!d.ghost) d.ghost = ghost_profile(g, d.dist);
  ledger()->charge_messages("comm/ghost/" + label, d.ghost->max_msgs,
                            d.ghost->max_items * elem_bytes);
}

MatchResult ParMetisBackend::match(const CsrGraph& g, int level) {
  const int P = P_;
  const Distribution dist = level_dist(level);  // dists_ grows below
  const RankRunner run(comm_, dist);
  const vid_t n = g.num_vertices();
  const std::string L = "/L" + std::to_string(level);
  MatchResult out;
  out.match.assign(static_cast<std::size_t>(n), kInvalidVid);
  std::vector<vid_t>& match = out.match;

  // -- matching passes (paper: even pass requests flow only to lower
  // ranks, odd pass to higher; one aggregated message per rank pair) --
  const int kPasses = 4;
  for (int pass = 0; pass < kPasses; ++pass) {
    charge_ghost_exchange(g, level, "matchstate" + L, sizeof(vid_t));

    // Request superstep: local pairing + remote requests.
    comm_.superstep(
        "coarsen/match/request" + L + "/p" + std::to_string(pass),
        [&](int r, Mailbox& mb) -> std::uint64_t {
          std::uint64_t work = 0;
          Rng rng(opts_.seed + static_cast<std::uint64_t>(level) * 131 +
                  static_cast<std::uint64_t>(pass) * 17 +
                  static_cast<std::uint64_t>(r));
          std::vector<std::vector<MatchRequest>> out(
              static_cast<std::size_t>(P));
          for (vid_t v = dist.begin(r); v < dist.end(r); ++v) {
            if (match[static_cast<std::size_t>(v)] != kInvalidVid) continue;
            const auto nbrs = g.neighbors(v);
            const auto wts = g.neighbor_weights(v);
            work += nbrs.size();
            vid_t best = kInvalidVid;
            wgt_t best_w = -1;
            const std::size_t rot =
                nbrs.empty() ? 0 : rng.next_below(nbrs.size());
            for (std::size_t j = 0; j < nbrs.size(); ++j) {
              const std::size_t idx = (j + rot) % nbrs.size();
              const vid_t u = nbrs[idx];
              // u may be another rank's (the paper's stale-ghost read).
              if (racy_load(match[static_cast<std::size_t>(u)]) != kInvalidVid)
                continue;
              if (wts[idx] > best_w) {
                best_w = wts[idx];
                best = u;
              }
            }
            if (best == kInvalidVid) continue;
            const int ro = dist.owner(best);
            if (ro == r) {
              // Local pair: owner commits both sides immediately.
              if (match[static_cast<std::size_t>(best)] == kInvalidVid) {
                racy_store(match[static_cast<std::size_t>(v)], best);
                racy_store(match[static_cast<std::size_t>(best)], v);
              }
            } else {
              const bool allowed = (pass % 2 == 0) ? (ro < r) : (ro > r);
              if (allowed) {
                racy_store(match[static_cast<std::size_t>(v)], kPendingVid);
                out[static_cast<std::size_t>(ro)].push_back(
                    {v, best, best_w});
              }
            }
          }
          send_batches(mb, out);
          return work;
        });

    // Grant superstep: owners arbitrate (heaviest request wins).  A
    // request whose endpoints fall outside the vertex range travelled
    // through a garbled payload: reject it before it can index.
    comm_.superstep(
        "coarsen/match/grant" + L + "/p" + std::to_string(pass),
        [&](int r, Mailbox& mb) -> std::uint64_t {
          std::uint64_t work = 0;
          std::vector<MatchRequest> reqs;
          for (const auto& m : mb.inbox()) {
            const auto batch = m.as<MatchRequest>();
            reqs.insert(reqs.end(), batch.begin(), batch.end());
          }
          std::sort(reqs.begin(), reqs.end(),
                    [](const MatchRequest& a, const MatchRequest& b) {
                      return a.w > b.w;
                    });
          std::vector<std::vector<Grant>> grants(
              static_cast<std::size_t>(P));
          for (const auto& rq : reqs) {
            ++work;
            if (rq.u < 0 || rq.u >= n || rq.v < 0 || rq.v >= n) {
              ++discards_[static_cast<std::size_t>(r)];
              continue;
            }
            if (match[static_cast<std::size_t>(rq.u)] != kInvalidVid)
              continue;
            match[static_cast<std::size_t>(rq.u)] = rq.v;
            grants[static_cast<std::size_t>(dist.owner(rq.v))].push_back(
                {rq.v, rq.u});
          }
          send_batches(mb, grants);
          return work;
        });

    // Commit superstep: requesters adopt their grants; denied requests
    // revert from pending to unmatched for the next pass.  A genuine
    // grant always targets a pending requester — anything else is a
    // garbled payload and is discarded (the asymmetric match it leaves
    // at the owner is dissolved by the repair sweep below).
    comm_.superstep(
        "coarsen/match/commit" + L + "/p" + std::to_string(pass),
        [&](int r, Mailbox& mb) -> std::uint64_t {
          std::uint64_t work = 0;
          for (const auto& m : mb.inbox()) {
            for (const auto& gr : m.as<Grant>()) {
              ++work;
              if (gr.v < 0 || gr.v >= n || gr.u < 0 || gr.u >= n ||
                  match[static_cast<std::size_t>(gr.v)] != kPendingVid) {
                ++discards_[static_cast<std::size_t>(r)];
                continue;
              }
              match[static_cast<std::size_t>(gr.v)] = gr.u;
            }
          }
          for (vid_t v = dist.begin(r); v < dist.end(r); ++v) {
            ++work;
            if (match[static_cast<std::size_t>(v)] == kPendingVid) {
              match[static_cast<std::size_t>(v)] = kInvalidVid;
            }
          }
          return work;
        });
    drain_discards("coarsen/match" + L + "/p" + std::to_string(pass));
  }

  // Recovery (fault plans only): a dropped grant — or a discarded
  // garbled one — leaves the owner pointing at a requester whose
  // pending state reverted: an asymmetric match that would corrupt the
  // coarse numbering.  Dissolve such edges; the vertex self-matches
  // below like any other leftover.
  if (injector_) {
    std::vector<std::uint64_t> repairs(static_cast<std::size_t>(P), 0);
    run.run("coarsen/match/repair" + L, n, [&](int r, vid_t b, vid_t e) {
      for (vid_t v = b; v < e; ++v) {
        const vid_t m = match[static_cast<std::size_t>(v)];
        if (m == kInvalidVid || m == v) continue;
        if (racy_load(match[static_cast<std::size_t>(m)]) != v) {
          racy_store(match[static_cast<std::size_t>(v)], kInvalidVid);
          ++repairs[static_cast<std::size_t>(r)];
        }
      }
      return static_cast<std::uint64_t>(e - b);
    });
    for (const auto c : repairs) health_.match_repairs += c;
  }

  // Self-match leftovers, then pair the owned ones that share a
  // neighbour (2-hop).  Both endpoints of a 2-hop pair are owned by the
  // rank, so it needs no message and writes no other rank's match[].
  const wgt_t two_hop_cap = two_hop_weight_cap(g, opts_.coarsen_target());
  run.run("coarsen/match/self" + L, n, [&](int, vid_t b, vid_t e) {
    for (vid_t v = b; v < e; ++v) {
      if (match[static_cast<std::size_t>(v)] == kInvalidVid) {
        match[static_cast<std::size_t>(v)] = v;
      }
    }
    return static_cast<std::uint64_t>(e - b) +
           two_hop_match(g, match, b, e, two_hop_cap);
  });

  // -- coarse numbering: ranks get contiguous coarse id ranges, leaders
  // numbered in vertex order (the order build_cmap_serial uses) --
  std::vector<vid_t> leader_count(static_cast<std::size_t>(P), 0);
  run.run("coarsen/cmap/count" + L, n, [&](int r, vid_t b, vid_t e) {
    for (vid_t v = b; v < e; ++v) {
      if (is_leader(match, v)) ++leader_count[static_cast<std::size_t>(r)];
    }
    return static_cast<std::uint64_t>(e - b);
  });
  {
    std::vector<std::vector<vid_t>> contrib(static_cast<std::size_t>(P));
    for (int r = 0; r < P; ++r)
      contrib[static_cast<std::size_t>(r)] = {
          leader_count[static_cast<std::size_t>(r)]};
    comm_.allgather("leader_count" + L, contrib);
  }
  Distribution coarse_dist = Distribution::from_counts(leader_count);
  const std::vector<vid_t>& coarse_off = coarse_dist.vtxdist;
  const vid_t n_coarse = coarse_off[static_cast<std::size_t>(P)];

  out.cmap.assign(static_cast<std::size_t>(n), kInvalidVid);
  std::vector<vid_t>& cmap = out.cmap;
  // Leaders label themselves; cross-rank followers get a message.
  comm_.superstep(
      "coarsen/cmap/assign" + L, [&](int r, Mailbox& mb) -> std::uint64_t {
        std::uint64_t work = 0;
        vid_t next = coarse_off[static_cast<std::size_t>(r)];
        std::vector<std::vector<CmapMsg>> out(static_cast<std::size_t>(P));
        for (vid_t v = dist.begin(r); v < dist.end(r); ++v) {
          ++work;
          if (!is_leader(match, v)) continue;
          cmap[static_cast<std::size_t>(v)] = next;
          const vid_t m = match[static_cast<std::size_t>(v)];
          if (m != v) {
            const int ro = dist.owner(m);
            if (ro == r) {
              cmap[static_cast<std::size_t>(m)] = next;
            } else {
              out[static_cast<std::size_t>(ro)].push_back({m, next});
            }
          }
          ++next;
        }
        send_batches(mb, out);
        return work;
      });
  // A garbled label message is discarded like a lost one: the follower
  // stays unlabeled and the bounded resend below repairs it.
  auto apply_cmap_msgs = [&](int r, Mailbox& mb) -> std::uint64_t {
    std::uint64_t work = 0;
    for (const auto& m : mb.inbox()) {
      for (const auto& cm : m.as<CmapMsg>()) {
        ++work;
        if (cm.follower < 0 || cm.follower >= n || cm.coarse_id < 0 ||
            cm.coarse_id >= n_coarse) {
          ++discards_[static_cast<std::size_t>(r)];
          continue;
        }
        cmap[static_cast<std::size_t>(cm.follower)] = cm.coarse_id;
      }
    }
    return work;
  };
  comm_.superstep("coarsen/cmap/followers" + L, apply_cmap_msgs);
  drain_discards("coarsen/cmap" + L);

  // Recovery (fault plans only): a dropped CmapMsg leaves a cross-rank
  // follower unlabeled, which would corrupt contraction.  Leaders rescan
  // their pairs and resend for a bounded number of rounds; loss that
  // outlives the rounds aborts the run cleanly.
  if (injector_) {
    for (int round = 0;; ++round) {
      bool missing = false;
      for (vid_t v = 0; v < n && !missing; ++v) {
        missing = cmap[static_cast<std::size_t>(v)] == kInvalidVid;
      }
      if (!missing) break;
      if (round >= kMaxResendRounds) {
        throw CommFailure("coarsen/cmap" + L +
                          ": follower labels still missing after " +
                          std::to_string(kMaxResendRounds) +
                          " resend rounds");
      }
      const std::string R = "/r" + std::to_string(round);
      std::vector<std::uint64_t> resent(static_cast<std::size_t>(P), 0);
      comm_.superstep(
          "coarsen/cmap/resend" + L + R,
          [&](int r, Mailbox& mb) -> std::uint64_t {
            std::uint64_t work = 0;
            std::vector<std::vector<CmapMsg>> out(
                static_cast<std::size_t>(P));
            for (vid_t v = dist.begin(r); v < dist.end(r); ++v) {
              ++work;
              if (!is_leader(match, v)) continue;
              const vid_t m = match[static_cast<std::size_t>(v)];
              if (m == v || cmap[static_cast<std::size_t>(m)] != kInvalidVid)
                continue;
              out[static_cast<std::size_t>(dist.owner(m))].push_back(
                  {m, cmap[static_cast<std::size_t>(v)]});
              ++resent[static_cast<std::size_t>(r)];
            }
            send_batches(mb, out);
            return work;
          });
      for (const auto c : resent) health_.messages_resent += c;
      comm_.superstep("coarsen/cmap/redeliver" + L + R, apply_cmap_msgs);
      drain_discards("coarsen/cmap" + L + R);
    }
  }

  out.n_coarse = n_coarse;
  dists_.resize(static_cast<std::size_t>(level) + 1);
  dists_.push_back({std::move(coarse_dist), {}});
  return out;
}

CsrGraph ParMetisBackend::contract(const CsrGraph& fine, const MatchResult& m,
                                   int level) {
  const int P = P_;
  const Distribution& dist = level_dist(level);
  const std::vector<vid_t>& coarse_off = level_dist(level + 1).vtxdist;
  const std::vector<vid_t>& match = m.match;
  const std::vector<vid_t>& cmap = m.cmap;
  const vid_t n_coarse = coarse_off[static_cast<std::size_t>(P)];
  const std::string L = "/L" + std::to_string(level);

  // -- contraction: cross-rank followers ship their (translated)
  // adjacency to the leader's rank; leaders merge rows --
  charge_ghost_exchange(fine, level, "cmap" + L, sizeof(vid_t));

  // Follower adjacency shipping (metered with real list sizes).
  {
    std::uint64_t max_bytes = 0, max_msgs = 0;
    for (int r = 0; r < P; ++r) {
      std::uint64_t bytes = 0, msgs = 0;
      for (vid_t v = dist.begin(r); v < dist.end(r); ++v) {
        if (is_leader(match, v)) continue;
        if (dist.owner(match[static_cast<std::size_t>(v)]) == r) continue;
        bytes += static_cast<std::uint64_t>(fine.degree(v)) *
                 (sizeof(vid_t) + sizeof(wgt_t));
        ++msgs;
      }
      max_bytes = std::max(max_bytes, bytes);
      max_msgs = std::max(
          max_msgs,
          std::min<std::uint64_t>(msgs, static_cast<std::uint64_t>(P - 1)));
    }
    ledger()->charge_messages("comm/coarsen/shipadj" + L, max_msgs,
                              max_bytes);
  }

  // Assemble the coarse graph (leaders merge; executed per rank).  Rank r
  // owns coarse rows [coarse_off[r], coarse_off[r+1]) and fills them in
  // leader order, so a perturbed cmap entry can misdirect arcs but never
  // make two ranks write one row: the contraction audit sees a
  // well-formed graph and rejects it.
  CoarseRows rows(n_coarse, P);
  runner(level).run(
      "coarsen/contract" + L, fine.num_vertices(),
      [&](int r, vid_t b, vid_t e) {
        std::uint64_t work = 0;
        vid_t c = coarse_off[static_cast<std::size_t>(r)];
        for (vid_t v = b; v < e; ++v) {
          if (!is_leader(match, v)) continue;
          work += rows.merge(fine, cmap, r, v,
                             match[static_cast<std::size_t>(v)], c++);
        }
        return work;
      });
  return rows.stitch();
}

Partition ParMetisBackend::initial_partition(const CsrGraph& cur,
                                             VcycleLevels&) {
  // All-to-all broadcast of the coarse graph, then every rank runs the
  // recursive bisection independently and the best cut wins (one
  // allreduce).
  const int P = P_;
  ledger()->charge_messages(
      "comm/initpart/broadcast", static_cast<std::uint64_t>(P - 1),
      cur.memory_bytes() * static_cast<std::uint64_t>(P - 1) /
          static_cast<std::uint64_t>(P));
  std::vector<Partition> candidates(static_cast<std::size_t>(P));
  std::vector<wgt_t> cand_cut(static_cast<std::size_t>(P), 0);
  comm_.superstep(
      "initpart/rb", [&](int r, Mailbox&) -> std::uint64_t {
        Rng rng(opts_.seed * 31 + static_cast<std::uint64_t>(r));
        std::uint64_t work = 0;

        // Shared initial-partitioning engine, stream-seed mode: byte-
        // compatible with the serial recursion.  Ranks already execute
        // concurrently on the comm layer's pool, so each rank runs the
        // engine without a nested pool of its own (nesting pool dispatch
        // inside a pool worker would deadlock).
        InitPartConfig icfg;
        icfg.k = opts_.k;
        icfg.eps = opts_.eps;
        icfg.seed_mode = InitSeedMode::kStream;
        InitPartStats ist;
        candidates[static_cast<std::size_t>(r)] =
            initpart_engine(cur, icfg, &rng, &ist);
        work += ist.work_units;
        cand_cut[static_cast<std::size_t>(r)] =
            edge_cut(cur, candidates[static_cast<std::size_t>(r)]);
        work += static_cast<std::uint64_t>(cur.num_arcs());
        return work;
      });
  ledger()->charge_messages("comm/initpart/allreduce",
                            static_cast<std::uint64_t>(P - 1),
                            static_cast<std::uint64_t>(P) * sizeof(wgt_t));
  std::size_t best = 0;
  for (std::size_t r = 1; r < candidates.size(); ++r) {
    if (cand_cut[r] < cand_cut[best]) best = r;
  }
  return std::move(candidates[best]);
}

void ParMetisBackend::refine(const CsrGraph& fine, Partition& p,
                             GainCache& cache, RefineSite site) {
  // Pass-committed passes: ranks propose moves from the gain cache, the
  // proposals are allgathered, and every rank replays the same commit
  // sequence.
  const int P = P_;
  const RankRunner run = runner(site.level);
  const wgt_t total = fine.total_vertex_weight();
  const wgt_t max_pw = max_part_weight(total, opts_.k, opts_.eps);
  const wgt_t min_pw = min_part_weight(total, opts_.k, opts_.eps);
  auto pw = partition_weights(fine, p);
  auto suffix = [&](int pass) {
    return "/L" + std::to_string(site.level) + "/p" + std::to_string(pass);
  };
  std::uint64_t proposed = 0;  // by the current pass
  refine_pass_committed(
      fine.vwgt(), pw, max_pw, min_pw, opts_.refine_passes,
      [&](int pass, bool upward) {
        const std::string LP = suffix(pass);
        charge_ghost_exchange(fine, site.level, "where" + LP, sizeof(part_t));
        std::vector<std::vector<MoveProposal>> proposals(
            static_cast<std::size_t>(P));
        run.run("uncoarsen/refine/propose" + LP, fine.num_vertices(),
                [&](int r, vid_t b, vid_t e) {
                  std::uint64_t work = 0;
                  for (vid_t v = b; v < e; ++v) {
                    const MoveProposal mv = cache.propose(
                        fine, p.where, v, upward,
                        [&](part_t q) {
                          return pw[static_cast<std::size_t>(q)] > max_pw;
                        },
                        work);
                    if (mv.to != kInvalidPart) {
                      proposals[static_cast<std::size_t>(r)].push_back(mv);
                    }
                  }
                  return work;
                });
        comm_.allgather("refine/proposals" + LP, proposals);
        std::vector<MoveProposal> all;
        for (const auto& pr : proposals) {
          all.insert(all.end(), pr.begin(), pr.end());
        }
        proposed = all.size();
        return all;
      },
      [&](int pass, const std::vector<MoveProposal>& moves) {
        comm_.superstep(
            "uncoarsen/refine/commit" + suffix(pass),
            [&](int r, Mailbox&) -> std::uint64_t {
              // Every rank replays the identical commit decision sequence;
              // rank 0 applies it to the shared state, others charge
              // compute only (in a real run each rank updates its copy).
              std::uint64_t work = proposed;
              if (r != 0) return work;
              for (const auto& mv : moves) {
                // Delta-update the cache before the label flips
                // (apply_move reads the neighbours' labels, not where[v]);
                // the replay is sequential, so the cache stays exact move
                // by move.
                work += cache.apply_move(fine, p.where, mv.v, mv.from, mv.to);
                p.where[static_cast<std::size_t>(mv.v)] = mv.to;
              }
              return work;
            });
      });
}

}  // namespace

PartitionResult ParMetisPartitioner::run(const CsrGraph& g,
                                         const PartitionOptions& opts) const {
  validate_options(g, opts);
  WallTimer wall;
  PartitionResult res;
  const int P = opts.ranks;
  ThreadPool pool(P);
  pool.set_cancel_token(opts.cancel);
  SimComm comm(P, pool, &res.ledger);
  const std::unique_ptr<FaultInjector> injector = opts.make_fault_injector();
  comm.set_fault_injector(injector.get());
  pool.set_fault_injector(injector.get());
  ParMetisBackend backend(opts, comm, injector.get(), res);
  vcycle_run(g, opts, backend, injector.get(), res);
  if (injector) {
    res.health.messages_dropped += comm.messages_dropped();
    if (res.health.match_repairs > 0) {
      res.health.note("parmetis: dissolved " +
                      std::to_string(res.health.match_repairs) +
                      " asymmetric matches left by dropped grants");
    }
    if (res.health.messages_resent > 0) {
      res.health.note("parmetis: resent " +
                      std::to_string(res.health.messages_resent) +
                      " cmap messages lost in transit");
    }
  }
  finish_run(res, injector.get());
  res.wall_seconds = wall.seconds();
  return res;
}

std::unique_ptr<Partitioner> make_par_partitioner() {
  return std::make_unique<ParMetisPartitioner>();
}

}  // namespace gp
