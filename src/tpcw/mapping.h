#ifndef XBENCH_TPCW_MAPPING_H_
#define XBENCH_TPCW_MAPPING_H_

#include <vector>

#include "datagen/generator.h"
#include "tpcw/rows.h"

namespace xbench::tpcw {

/// DC/SD: join-based nesting mapping (paper §2.1.2, Figure 3). ITEM is the
/// base table; AUTHOR(+AUTHOR_2+ADDRESS+COUNTRY) and PUBLISHER tuples are
/// nested under their items via foreign keys, producing one deep
/// catalog.xml.
datagen::GeneratedDocument BuildCatalog(const TpcwData& data);

/// DC/MD: ORDERS ⋈ ORDER_LINE ⋈ CC_XACTS mapped to one orderXXX.xml per
/// order (Figure 4).
std::vector<datagen::GeneratedDocument> BuildOrderDocuments(
    const TpcwData& data);

/// DC/MD: flat translation (FT) of CUSTOMER, ITEM, AUTHOR, ADDRESS and
/// COUNTRY into one flat document each (tuple -> element, column -> leaf).
std::vector<datagen::GeneratedDocument> BuildFlatDocuments(
    const TpcwData& data);

}  // namespace xbench::tpcw

#endif  // XBENCH_TPCW_MAPPING_H_
