#include "dataplane/table_snapshot.h"

#include <cassert>

namespace p4runpro::dp {

TableSnapshot::TableSnapshot(const InitBlock& init,
                             const std::vector<std::shared_ptr<Rpb>>& rpbs,
                             const RecircBlock& recirc_block, std::uint64_t trace,
                             std::uint64_t generation, const TableSnapshot* previous)
    : table_trace(trace), table_generation(generation) {
  assert(previous == nullptr || previous->rpb_tables.size() == rpbs.size());
  for (std::size_t p = 0; p < filters.size(); ++p) {
    filters[p] = FrozenFilterTable::freeze(
        init.table(static_cast<ParsePath>(p)),
        previous != nullptr ? previous->filters[p] : nullptr, buckets);
  }
  rpb_tables.reserve(rpbs.size());
  for (std::size_t i = 0; i < rpbs.size(); ++i) {
    rpb_tables.push_back(FrozenRpbTable::freeze(
        rpbs[i]->table(), previous != nullptr ? previous->rpb_tables[i] : nullptr,
        buckets));
  }
  recirc = FrozenRecircTable::freeze(recirc_block.table(),
                                     previous != nullptr ? previous->recirc : nullptr,
                                     buckets);
}

}  // namespace p4runpro::dp
