#include "datagen/order_generator.h"

#include <algorithm>

#include "tpcw/mapping.h"
#include "tpcw/populate.h"

namespace xbench::datagen {
namespace {

tpcw::PopulateScale OrderScale(int64_t orders) {
  tpcw::PopulateScale scale;
  scale.orders = orders;
  scale.customers = std::max<int64_t>(10, orders / 4);
  scale.items = std::max<int64_t>(20, orders / 2);
  scale.authors = std::max<int64_t>(10, scale.items / 3);
  scale.publishers = 20;
  return scale;
}

}  // namespace

GeneratedDatabase GenerateOrders(uint64_t target_bytes, uint64_t seed,
                                 const WordPool& words) {
  constexpr int64_t kPilotOrders = 64;
  tpcw::TpcwData pilot = tpcw::Populate(OrderScale(kPilotOrders), seed, words);
  uint64_t pilot_bytes = 0;
  for (const auto& docs :
       {tpcw::BuildOrderDocuments(pilot), tpcw::BuildFlatDocuments(pilot)}) {
    for (const GeneratedDocument& doc : docs) pilot_bytes += doc.text.size();
  }
  const double bytes_per_order = static_cast<double>(pilot_bytes) /
                                 static_cast<double>(kPilotOrders);

  const int64_t orders = std::max<int64_t>(
      8, static_cast<int64_t>(static_cast<double>(target_bytes) /
                              bytes_per_order));

  const tpcw::PopulateScale scale = OrderScale(orders);
  const tpcw::TpcwData data = tpcw::Populate(scale, seed, words);
  GeneratedDatabase db;
  db.documents = tpcw::BuildOrderDocuments(data);
  for (GeneratedDocument& doc : tpcw::BuildFlatDocuments(data)) {
    db.documents.push_back(std::move(doc));
  }
  db.seeds.order_count = orders;
  db.seeds.customer_count = scale.customers;
  db.seeds.item_count = scale.items;
  db.seeds.country_count = static_cast<int64_t>(data.countries.size());
  return db;
}

}  // namespace xbench::datagen
