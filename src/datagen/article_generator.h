#ifndef XBENCH_DATAGEN_ARTICLE_GENERATOR_H_
#define XBENCH_DATAGEN_ARTICLE_GENERATOR_H_

#include <cstdint>

#include "common/random.h"
#include "datagen/generator.h"
#include "datagen/word_pool.h"

namespace xbench::datagen {

/// TC/MD: a collection of articleXXX.xml documents (Reuters/Springer
/// generalization, Figure 2): loose schema, recursive sections, references
/// between documents.
///
/// Article layout:
///   article @id="A000001"
///     prolog
///       title        sentence
///       author*      1..4: name, contact? (email?/phone? — possibly EMPTY
///                    element, Q15's irregularity target)
///       date         ISO date (1995..2002)
///       keywords?    keyword* Zipf words
///       abstract     p*
///     body
///       sec*         recursive up to depth 3; first sec's heading is
///                    "Introduction" (Q4's anchor); sec = heading, p*, sec*
///     epilog?
///       references?  ref* @to other article ids
///
/// Returns the articles and `seeds.article_count` ("article_num").
GeneratedDatabase GenerateArticles(uint64_t target_bytes, uint64_t seed,
                                   const WordPool& words);

std::string ArticleId(int64_t n);
std::string ArticleFileName(int64_t n);

/// Deterministic author name for parameter selection: every K-th article
/// is authored by this fixed person (Q2/Q4's "Y").
std::string WellKnownAuthor();
inline constexpr int kWellKnownAuthorStride = 10;

}  // namespace xbench::datagen

#endif  // XBENCH_DATAGEN_ARTICLE_GENERATOR_H_
