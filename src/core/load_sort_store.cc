#include "core/load_sort_store.h"

#include <vector>

#include "simd/kernels.h"

namespace twrs {

LoadSortStore::LoadSortStore(LoadSortStoreOptions options)
    : options_(options) {}

Status LoadSortStore::Generate(RecordSource* source, RunSink* sink,
                               RunGenStats* stats) {
  if (options_.memory_records == 0) {
    return Status::InvalidArgument("memory_records must be positive");
  }
  const size_t first_run = sink->runs().size();
  std::vector<Key> block(options_.memory_records);
  for (;;) {
    size_t n = 0;
    TWRS_RETURN_IF_ERROR(ReadFull(source, block.data(), block.size(), &n));
    if (n == 0) break;
    simd::SortKeysBlock(block.data(), n);
    TWRS_RETURN_IF_ERROR(sink->BeginRun());
    TWRS_RETURN_IF_ERROR(sink->AppendBatch(kStream1, block.data(), n));
    TWRS_RETURN_IF_ERROR(sink->EndRun());
    if (n < block.size()) break;  // input exhausted
  }
  TWRS_RETURN_IF_ERROR(sink->Finish());
  FillStatsFromSink(*sink, first_run, stats);
  return Status::OK();
}

}  // namespace twrs
