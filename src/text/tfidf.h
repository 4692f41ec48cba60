// Tf-idf vectorizer over unigram+bigram token streams.
//
// Reproduces the feature pipeline of Sections IV-A and IV-D: fit document
// frequencies on a corpus, keep the top-K features ranked by idf (the paper
// keeps the top 300 "sorted by their idf values"), and transform documents
// into dense K-dimensional tf-idf vectors.

#ifndef RETINA_TEXT_TFIDF_H_
#define RETINA_TEXT_TFIDF_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "common/sparse_vec.h"
#include "common/status.h"
#include "common/vec.h"
#include "io/checkpoint.h"

namespace retina::text {

/// Options controlling vectorizer fitting.
struct TfIdfOptions {
  /// Number of features kept after ranking. 0 keeps all.
  size_t max_features = 300;
  /// Tokens must appear in at least this many documents.
  size_t min_df = 2;
  /// Rank retained features by idf (paper's choice) instead of by
  /// document frequency.
  bool rank_by_idf = true;
  /// L2-normalize transformed vectors (sklearn default).
  bool l2_normalize = true;
};

/// \brief Fit-then-transform tf-idf vectorizer.
///
/// idf uses the smoothed form log((1+N)/(1+df)) + 1.
class TfIdfVectorizer {
 public:
  explicit TfIdfVectorizer(TfIdfOptions options = {})
      : options_(options) {}

  /// Fits vocabulary and idf weights on tokenized documents.
  /// Returns InvalidArgument if `docs` is empty.
  Status Fit(const std::vector<std::vector<std::string>>& docs);

  /// Transforms one document into a dense feature vector of Dim() entries.
  Vec Transform(const std::vector<std::string>& doc) const;

  /// Native sparse transform: the same tf-idf vector as Transform but as
  /// sorted (index, value) pairs — only the document's active features are
  /// touched, so cost scales with the document instead of Dim().
  /// TransformSparse(doc).ToDense() == Transform(doc) exactly.
  SparseVec TransformSparse(const std::vector<std::string>& doc) const;

  /// Average of transformed vectors over `docs` — used for the exogenous
  /// news feature (Section IV-D averages the 60 most recent headlines).
  /// Accumulates sparse transforms; each output entry sums the same terms
  /// in the same document order as the dense path, so the result is
  /// unchanged.
  Vec TransformAverage(
      const std::vector<std::vector<std::string>>& docs) const;

  /// Number of retained features (0 before Fit).
  size_t Dim() const { return feature_tokens_.size(); }

  /// Retained feature tokens in feature-index order.
  const std::vector<std::string>& feature_tokens() const {
    return feature_tokens_;
  }

  /// idf weight for feature index i.
  double IdfAt(size_t i) const { return idf_[i]; }

  bool fitted() const { return !feature_tokens_.empty(); }

  /// Writes the fitted state (options, feature tokens, idf weights) under
  /// `prefix`; Transform on a loaded vectorizer is bit-identical.
  void SaveTo(io::Checkpoint* ckpt, const std::string& prefix) const;

  /// Replaces this vectorizer with the one saved under `prefix`
  /// (the token→index map is rebuilt from the token table).
  Status LoadFrom(const io::Checkpoint& ckpt, const std::string& prefix);

 private:
  TfIdfOptions options_;
  std::unordered_map<std::string, size_t> feature_index_;
  std::vector<std::string> feature_tokens_;
  Vec idf_;
};

}  // namespace retina::text

#endif  // RETINA_TEXT_TFIDF_H_
