#ifndef XBENCH_DATAGEN_DICTIONARY_GENERATOR_H_
#define XBENCH_DATAGEN_DICTIONARY_GENERATOR_H_

#include <cstdint>

#include "common/random.h"
#include "datagen/generator.h"
#include "datagen/word_pool.h"

namespace xbench::datagen {

/// TC/SD: one big dictionary.xml with repeated word entries, deep nesting
/// and references between entries (GCIDE/OED generalization, Figure 1).
///
/// Entry layout:
///   dictionary
///     entry @id="E000001"                (repeated; controls size)
///       hw        "word_1"               (unique headword, Q8/Q11/Q17)
///       pr?       pronunciation
///       pos?      part of speech
///       etym?     etymology sentence
///       sn*       sense: def text, then
///         qp*     quotation paragraph
///           q       quote
///             qt      quotation text (mixed-content-like text)
///             qau     quotation author
///             qd      quotation date       (Q11 sort key)
///             qloc?   quotation location   (Q3 group key)
///       ss?       synonyms: ref* @to="E......" cross-references
///
/// Returns the one document and `seeds.entry_count` ("entry_num").
GeneratedDatabase GenerateDictionary(uint64_t target_bytes, uint64_t seed,
                                     const WordPool& words);

/// Number of distinct qloc location strings (Q3's group-by domain).
inline constexpr int kQuoteLocationCount = 40;
/// The qloc value with the given index in [0, kQuoteLocationCount).
std::string QuoteLocation(int index);

/// The headword of the 1-based entry N ("word_N") and its id ("E......").
std::string DictionaryHeadword(int64_t n);
std::string DictionaryEntryId(int64_t n);

}  // namespace xbench::datagen

#endif  // XBENCH_DATAGEN_DICTIONARY_GENERATOR_H_
