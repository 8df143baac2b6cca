#include "datagen/catalog_generator.h"

#include <algorithm>

#include "tpcw/mapping.h"
#include "tpcw/populate.h"

namespace xbench::datagen {
namespace {

tpcw::PopulateScale CatalogScale(int64_t items) {
  tpcw::PopulateScale scale;
  scale.items = items;
  scale.authors = std::max<int64_t>(10, items / 3);
  scale.publishers = std::max<int64_t>(10, items / 50);
  scale.customers = 10;  // unused by the catalog mapping
  scale.orders = 1;
  return scale;
}

}  // namespace

GeneratedDatabase GenerateCatalog(uint64_t target_bytes, uint64_t seed,
                                  const WordPool& words) {
  // Pilot run to measure bytes per item under this seed's distributions.
  constexpr int64_t kPilotItems = 64;
  tpcw::TpcwData pilot =
      tpcw::Populate(CatalogScale(kPilotItems), seed, words);
  const uint64_t pilot_bytes = tpcw::BuildCatalog(pilot).text.size();
  const double bytes_per_item =
      static_cast<double>(pilot_bytes) / static_cast<double>(kPilotItems);

  const int64_t items = std::max<int64_t>(
      8, static_cast<int64_t>(static_cast<double>(target_bytes) /
                              bytes_per_item));

  const tpcw::TpcwData data =
      tpcw::Populate(CatalogScale(items), seed, words);
  GeneratedDatabase db;
  db.documents.push_back(tpcw::BuildCatalog(data));
  db.seeds.item_count = items;
  db.seeds.author_count = static_cast<int64_t>(data.authors.size());
  db.seeds.country_count = static_cast<int64_t>(data.countries.size());
  return db;
}

}  // namespace xbench::datagen
