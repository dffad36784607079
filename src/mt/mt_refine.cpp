#include "mt/mt_refine.hpp"

#include <atomic>
#include <limits>

#include "gpu/device_atomics.hpp"

namespace gp {

MtRefineStats mt_refine(const CsrGraph& g, Partition& p, double eps,
                        int max_passes, const MtContext& ctx, int level,
                        bool cut_stats, GainCache* cache) {
  MtRefineStats stats;
  const vid_t n = g.num_vertices();
  const int nt = ctx.threads();
  const wgt_t total = g.total_vertex_weight();
  const wgt_t max_pw = max_part_weight(total, p.k, eps);
  const wgt_t min_pw = min_part_weight(total, p.k, eps);

  // Gain cache (DESIGN.md §3.6): propose reads conn/gain from the sparse
  // table instead of rescanning neighbourhoods, and each pass ends with a
  // delta replay of the committed moves.  Callers that carry a cache
  // across levels pass it in (it must match p.where); otherwise one is
  // built here with a parallel sweep.
  const PoolRunner run(ctx);
  GainCache local_cache;
  GainCache* gc = cache;
  if (gc == nullptr) {
    gc = &local_cache;
    build_gain_cache(
        run, "uncoarsen/refine/gaincache-build/L" + std::to_string(level), g,
        p.where, p.k, *gc);
  }
  if (cut_stats) stats.cut_before = gc->cut();

  auto pw = partition_weights(g, p);
  part_t* where = p.where.data();
  wgt_t* pwd = pw.data();

  // One request buffer per partition (paper: "we allocate a buffer to each
  // partition where the threads insert their movement requests").
  std::vector<std::vector<MoveProposal>> buffers(
      static_cast<std::size_t>(p.k));
  std::vector<std::mutex> buf_mutex(static_cast<std::size_t>(p.k));

  // Per-thread delta buffers (mt-metis): each explore thread records the
  // moves it committed; the replay at the pass barrier folds them into the
  // gain cache so the next propose pass reads exact state.
  std::vector<std::vector<CommittedMove>> deltas(
      static_cast<std::size_t>(nt));

  // The pass budget stretches (up to 8x) while the balance constraint is
  // still violated — the paper's "balance ... is guaranteed by continuing
  // the refinement" requires not stopping while a part is overweight and
  // draining.
  auto max_pw_violated = [&] {
    for (part_t q = 0; q < p.k; ++q) {
      if (pwd[static_cast<std::size_t>(q)] > max_pw) return true;
    }
    return false;
  };
  int idle_passes = 0;
  for (int pass = 0;
       pass < max_passes || (pass < 8 * max_passes && max_pw_violated());
       ++pass) {
    ++stats.passes;
    // Direction alternates per pass: even passes allow only moves to a
    // higher part id, odd passes to a lower id.  This "prevents concurrent
    // exchanges of two vertices between two neighbor partitions".
    const bool upward = (pass % 2 == 0);

    for (auto& buf : buffers) buf.clear();
    for (auto& d : deltas) d.clear();

    // --- propose kernel: threads scan their owned boundary vertices,
    // reading gains from the cache (the cache is exact here: the last
    // pass's deltas were replayed at the barrier) ---
    const std::string LP =
        "/L" + std::to_string(level) + "/p" + std::to_string(pass);
    std::vector<std::uint64_t> proposed(static_cast<std::size_t>(nt), 0);
    run.run("uncoarsen/refine/propose" + LP, n, [&](int t, vid_t b, vid_t e) {
      std::uint64_t w = 0, np = 0;
      for (vid_t v = b; v < e; ++v) {
        const MoveProposal mv = gc->propose(
            g, p.where, v, upward,
            [&](part_t q) { return racy_load(pwd[q]) > max_pw; }, w);
        if (mv.to == kInvalidPart) continue;
        ++np;
        std::lock_guard<std::mutex> lk(
            buf_mutex[static_cast<std::size_t>(mv.to)]);
        buffers[static_cast<std::size_t>(mv.to)].push_back(mv);
      }
      proposed[static_cast<std::size_t>(t)] = np;
      return w;
    });
    for (const auto x : proposed) stats.proposed += x;

    // --- explore kernel: one logical thread per partition ---
    std::atomic<std::uint64_t> committed{0}, rejected{0};
    run.run("uncoarsen/refine/commit" + LP, p.k,
            [&](int t, part_t b, part_t e) {
              std::uint64_t w = 0, nc = 0, nr = 0;
              // Swapped out for the loop and back after it: the buffer
              // keeps its capacity across passes but never shares a cache
              // line.
              std::vector<CommittedMove> delta;
              delta.swap(deltas[static_cast<std::size_t>(t)]);
              for (part_t q = b; q < e; ++q) {
                auto& buf = buffers[static_cast<std::size_t>(q)];
                // Each committed move goes into this thread's delta
                // buffer, replayed into the cache at the pass barrier.
                const CommitTally ct = commit_requests(
                    buf.data(), buf.data() + buf.size(), q, pwd, where,
                    max_pw, min_pw,
                    [&](const MoveProposal& r) {
                      return g.vertex_weight(r.v);
                    },
                    [&](const MoveProposal& r) {
                      delta.push_back({r.v, r.from, r.to});
                    });
                w += ct.scanned;
                nc += ct.committed;
                nr += ct.rejected;
              }
              delta.swap(deltas[static_cast<std::size_t>(t)]);
              committed += nc;
              rejected += nr;
              return w;
            });
    stats.committed += committed.load();
    stats.rejected_balance += rejected.load();

    // --- delta replay at the barrier ---
    // Any fixed replay order yields the exact cache of the final labels
    // (each step transforms the exact cache of one configuration into the
    // exact cache of the next), so concatenating the per-thread buffers
    // in thread order is sufficient.
    if (committed.load() != 0) {
      std::vector<CommittedMove> all_moves;
      all_moves.reserve(static_cast<std::size_t>(committed.load()));
      for (const auto& d : deltas) {
        all_moves.insert(all_moves.end(), d.begin(), d.end());
      }
      const std::uint64_t dw = gc->apply_moves(g, p.where, all_moves);
      ctx.charge_serial("uncoarsen/refine/delta" + LP, dw);
    }

    // Terminate on idleness — but only after BOTH directions have gone
    // idle back to back: an overweight part may have admissible evictions
    // in only one of the two alternating directions.
    idle_passes = (committed.load() == 0) ? idle_passes + 1 : 0;
    if (idle_passes >= 2) break;
  }

  // --- forced balance cleanup ---
  // The alternating-direction drain can go idle with a part still a few
  // units overweight: its admissible targets may all be at capacity in
  // both directions, and race outcomes decide whether that corner is hit.
  // The balance constraint is a guarantee, not a preference, so finish
  // the job serially: evict the minimum-damage vertex from each
  // overweight part (any underweight destination admissible) until every
  // part fits.  Violations at this point are tiny, so the serial scans
  // are cheap relative to the passes above.
  std::uint64_t cleanup_work = 0;
  std::vector<wgt_t> conn(static_cast<std::size_t>(p.k), 0);
  std::vector<part_t> parts;
  bool progress = true;
  while (progress && max_pw_violated()) {
    progress = false;
    for (part_t q = 0; q < p.k; ++q) {
      if (pwd[static_cast<std::size_t>(q)] <= max_pw) continue;
      vid_t best_v = kInvalidVid;
      part_t best_to = kInvalidPart;
      wgt_t best_score = std::numeric_limits<wgt_t>::min();
      for (vid_t v = 0; v < n; ++v) {
        if (where[v] != q) continue;
        const wgt_t vw = g.vertex_weight(v);
        if (pwd[static_cast<std::size_t>(q)] - vw < min_pw) continue;
        cleanup_work += static_cast<std::uint64_t>(g.degree(v)) + 1;
        const wgt_t internal = gather_conn(
            g.adjp().data(), g.adjncy().data(), g.adjwgt().data(),
            [&](vid_t u) { return where[u]; }, v, q, conn, parts);
        // Every part is a candidate, adjacent or not (conn 0).
        for (part_t r = 0; r < p.k; ++r) {
          if (r == q) continue;
          if (pwd[static_cast<std::size_t>(r)] + vw > max_pw) continue;
          const wgt_t score = conn[static_cast<std::size_t>(r)] - internal;
          if (score > best_score) {
            best_score = score;
            best_v = v;
            best_to = r;
          }
        }
        for (const part_t r : parts) conn[static_cast<std::size_t>(r)] = 0;
      }
      if (best_v == kInvalidVid) continue;  // nothing admissible from q
      const wgt_t vw = g.vertex_weight(best_v);
      // Keep the cache exact through the forced move (the destination may
      // be non-adjacent; apply_move handles zero connectivity).
      cleanup_work += gc->apply_move(g, p.where, best_v, q, best_to);
      where[best_v] = best_to;
      pwd[static_cast<std::size_t>(q)] -= vw;
      pwd[static_cast<std::size_t>(best_to)] += vw;
      ++stats.committed;
      progress = true;
    }
  }
  if (cleanup_work > 0) {
    ctx.charge_serial("uncoarsen/refine/balance/L" + std::to_string(level),
                      cleanup_work);
  }

  if (cut_stats) stats.cut_after = gc->cut();
  return stats;
}

}  // namespace gp
