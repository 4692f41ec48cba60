#include "text/tokenizer.h"

#include <cctype>

#include "common/string_util.h"

namespace retina::text {

std::vector<std::string> Tokenize(std::string_view raw) {
  std::vector<std::string> out;
  for (const std::string& piece : SplitWhitespace(raw)) {
    if (StartsWith(piece, "http://") || StartsWith(piece, "https://")) {
      continue;
    }
    std::string tok;
    tok.reserve(piece.size());
    for (size_t i = 0; i < piece.size(); ++i) {
      const char c = piece[i];
      const bool sigil = (i == 0 && (c == '#' || c == '@'));
      if (sigil || std::isalnum(static_cast<unsigned char>(c)) || c == '_') {
        tok += static_cast<char>(
            std::tolower(static_cast<unsigned char>(c)));
      }
    }
    if (!tok.empty() && tok != "#" && tok != "@") out.push_back(std::move(tok));
  }
  return out;
}

std::vector<std::string> Bigrams(const std::vector<std::string>& unigrams) {
  std::vector<std::string> out;
  if (unigrams.size() < 2) return out;
  out.reserve(unigrams.size() - 1);
  for (size_t i = 0; i + 1 < unigrams.size(); ++i) {
    out.push_back(unigrams[i] + "_" + unigrams[i + 1]);
  }
  return out;
}

}  // namespace retina::text
