// In-process mailbox exchanging boundary hidden-state rows between parts.
//
// At every propagation layer each part computes only its OWNED rows; the
// halo rows it reads at the next layer are produced by their owner parts
// and delivered here. Each halo row has exactly one producer (its owning
// part), so delivery is a copy, not a reduction — but the merge order is
// still fixed by contract: DeliverHalo drains source parts in ascending
// part id and writes rows in ascending global id. Holding the order fixed
// means that even if a future transport made delivery concurrent or turned
// copies into accumulations, the P-part forward would remain byte-stable —
// the fixed-reduction-order discipline DESIGN.md describes, and the reason
// the partitioned forward is memcmp-identical to the lone engine.
//
// Not thread-safe: the engine serializes its layer loop (post all parts,
// then deliver all parts) on one thread; the SpMM inside each layer is
// where the thread pool parallelism lives.
#ifndef AUTOHENS_PARTITION_HALO_EXCHANGE_H_
#define AUTOHENS_PARTITION_HALO_EXCHANGE_H_

#include <cstdint>
#include <vector>

#include "partition/plan.h"
#include "tensor/matrix.h"

namespace ahg::partition {

class HaloExchange {
 public:
  // `plan` must outlive the exchange. Routes are derived from the plan's
  // halo lists; call Rebuild() after the plan mutates.
  explicit HaloExchange(const PartitionPlan* plan);

  // Recomputes all routes from the current plan (after a mutation batch
  // changed halo sets or appended nodes).
  void Rebuild();

  // Gathers the boundary rows of part p's state (n_local x dim) — the owned
  // rows some other part holds as halo — into that consumer's mailbox.
  // With `dirty_globals` (sorted ascending), only the boundary rows whose
  // global id it lists are posted — the incremental-refresh path.
  void PostBoundary(int p, const Matrix& state,
                    const std::vector<int>* dirty_globals = nullptr);

  // Merges every mailbox posted for part q into its halo rows: source parts
  // in ascending part id, rows in ascending global id. Clears q's mailbox.
  void DeliverHalo(int q, Matrix* state);

  // Total halo rows delivered since construction (also exported as the
  // partition.halo_rows_exchanged counter).
  int64_t rows_exchanged() const { return rows_exchanged_; }

 private:
  // Rows part `src` owns that part `dst` holds as halo, ascending global.
  struct Route {
    std::vector<int> src_locals;
    std::vector<int> dst_locals;
    std::vector<int> globals;
  };
  struct Mail {
    Matrix rows;
    std::vector<int> dst_locals;
  };

  const PartitionPlan* plan_;
  std::vector<std::vector<Route>> routes_;   // [src][dst]
  std::vector<std::vector<Mail>> mailbox_;   // [dst][src]
  int64_t rows_exchanged_ = 0;
};

}  // namespace ahg::partition

#endif  // AUTOHENS_PARTITION_HALO_EXCHANGE_H_
