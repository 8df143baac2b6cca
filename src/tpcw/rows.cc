#include "tpcw/rows.h"

#include "common/strings.h"

namespace xbench::tpcw {

std::string ItemIdString(int64_t i_id) {
  return StrCat({"I", PadNumber(i_id, 6)});
}
std::string OrderIdString(int64_t o_id) {
  return StrCat({"O", PadNumber(o_id, 6)});
}
std::string AuthorIdString(int64_t a_id) {
  return StrCat({"AU", PadNumber(a_id, 5)});
}
std::string CustomerIdString(int64_t c_id) {
  return StrCat({"C", PadNumber(c_id, 6)});
}

const std::vector<std::string>& ShipTypes() {
  static const auto* kTypes = new std::vector<std::string>{
      "AIR", "COURIER", "EXPRESS", "GROUND", "MAIL", "SHIP"};
  return *kTypes;
}

const std::vector<std::string>& OrderStatuses() {
  static const auto* kStatuses = new std::vector<std::string>{
      "PENDING", "PROCESSING", "SHIPPED", "DENIED"};
  return *kStatuses;
}

}  // namespace xbench::tpcw
