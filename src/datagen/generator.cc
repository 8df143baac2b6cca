#include "datagen/generator.h"

#include "datagen/article_generator.h"
#include "datagen/catalog_generator.h"
#include "datagen/dictionary_generator.h"
#include "datagen/order_generator.h"
#include "datagen/word_pool.h"

namespace xbench::datagen {

const char* DbClassName(DbClass cls) {
  switch (cls) {
    case DbClass::kTcSd:
      return "TC/SD";
    case DbClass::kTcMd:
      return "TC/MD";
    case DbClass::kDcSd:
      return "DC/SD";
    case DbClass::kDcMd:
      return "DC/MD";
  }
  return "?";
}

GeneratedDatabase Generate(DbClass cls, const GenConfig& config) {
  // One shared vocabulary per database keeps workload parameter selection
  // (word ranks) stable across classes.
  WordPool words;

  GeneratedDatabase db;
  switch (cls) {
    case DbClass::kTcSd:
      db = GenerateDictionary(config.target_bytes, config.seed, words);
      break;
    case DbClass::kTcMd:
      db = GenerateArticles(config.target_bytes, config.seed, words);
      break;
    case DbClass::kDcSd:
      db = GenerateCatalog(config.target_bytes, config.seed, words);
      break;
    case DbClass::kDcMd:
      db = GenerateOrders(config.target_bytes, config.seed, words);
      break;
  }
  db.db_class = cls;
  for (const GeneratedDocument& doc : db.documents) {
    db.total_bytes += doc.text.size();
  }
  return db;
}

}  // namespace xbench::datagen
