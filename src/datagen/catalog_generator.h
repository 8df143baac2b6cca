#ifndef XBENCH_DATAGEN_CATALOG_GENERATOR_H_
#define XBENCH_DATAGEN_CATALOG_GENERATOR_H_

#include <cstdint>

#include "datagen/generator.h"
#include "datagen/word_pool.h"

namespace xbench::datagen {

/// DC/SD: one catalog.xml produced by populating the TPC-W-like tables and
/// applying the join-nesting mapping. The item count is solved against the
/// target size by generating a pilot batch, measuring bytes/item, then
/// re-populating at the solved cardinality. Returns the document and the
/// item, author and country counts in `seeds`.
GeneratedDatabase GenerateCatalog(uint64_t target_bytes, uint64_t seed,
                                  const WordPool& words);

}  // namespace xbench::datagen

#endif  // XBENCH_DATAGEN_CATALOG_GENERATOR_H_
