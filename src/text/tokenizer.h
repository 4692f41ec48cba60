// Tweet/headline tokenizer.
//
// Mirrors the preprocessing the paper applies before tf-idf / Doc2Vec:
// lowercase, strip URLs and punctuation, keep #hashtags and @mentions as
// single tokens (hashtags double as topic labels, Section IV-B).

#ifndef RETINA_TEXT_TOKENIZER_H_
#define RETINA_TEXT_TOKENIZER_H_

#include <string>
#include <string_view>
#include <vector>

namespace retina::text {

/// Splits raw text into lowercase tokens. '#'/'@'-prefixed tokens are kept
/// intact (with their sigil); URLs (http/https prefixes) are dropped;
/// other punctuation is stripped.
std::vector<std::string> Tokenize(std::string_view raw);

/// Produces "a_b"-style bigram tokens from a unigram sequence.
std::vector<std::string> Bigrams(const std::vector<std::string>& unigrams);

}  // namespace retina::text

#endif  // RETINA_TEXT_TOKENIZER_H_
