#ifndef XBENCH_DATAGEN_ORDER_GENERATOR_H_
#define XBENCH_DATAGEN_ORDER_GENERATOR_H_

#include <cstdint>

#include "datagen/generator.h"
#include "datagen/word_pool.h"

namespace xbench::datagen {

/// DC/MD: many small orderXXX.xml documents (flat-translation class) plus
/// the five flat table documents (Customer/Item/Author/Address/Country)
/// that Q19 joins against. Order count is solved against the target size
/// with a pilot batch. Returns the orders, then the flat documents, and the
/// order, customer, item and country counts in `seeds`.
GeneratedDatabase GenerateOrders(uint64_t target_bytes, uint64_t seed,
                                 const WordPool& words);

}  // namespace xbench::datagen

#endif  // XBENCH_DATAGEN_ORDER_GENERATOR_H_
