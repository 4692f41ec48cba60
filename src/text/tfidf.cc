#include "text/tfidf.h"

#include <algorithm>
#include <cmath>

#include "common/simd.h"

namespace retina::text {

Status TfIdfVectorizer::Fit(
    const std::vector<std::vector<std::string>>& docs) {
  if (docs.empty()) {
    return Status::InvalidArgument("TfIdfVectorizer::Fit: empty corpus");
  }
  feature_index_.clear();
  feature_tokens_.clear();
  idf_.clear();

  // Document frequencies.
  std::unordered_map<std::string, size_t> df;
  for (const auto& doc : docs) {
    std::unordered_map<std::string, bool> in_doc;
    for (const auto& tok : doc) in_doc.emplace(tok, true);
    for (const auto& [tok, _] : in_doc) ++df[tok];
  }

  const double n = static_cast<double>(docs.size());
  struct Cand {
    std::string token;
    size_t df;
    double idf;
  };
  std::vector<Cand> cands;
  cands.reserve(df.size());
  for (auto& [tok, d] : df) {
    if (d < options_.min_df) continue;
    const double idf = std::log((1.0 + n) / (1.0 + static_cast<double>(d))) +
                       1.0;
    cands.push_back({tok, d, idf});
  }
  if (cands.empty()) {
    return Status::FailedPrecondition(
        "TfIdfVectorizer::Fit: no token satisfies min_df");
  }

  if (options_.rank_by_idf) {
    // Highest idf first (rarest informative tokens), token as tiebreak for
    // determinism.
    std::sort(cands.begin(), cands.end(), [](const Cand& a, const Cand& b) {
      if (a.idf != b.idf) return a.idf > b.idf;
      return a.token < b.token;
    });
  } else {
    std::sort(cands.begin(), cands.end(), [](const Cand& a, const Cand& b) {
      if (a.df != b.df) return a.df > b.df;
      return a.token < b.token;
    });
  }
  if (options_.max_features > 0 && cands.size() > options_.max_features) {
    cands.resize(options_.max_features);
  }
  // Stable feature order: lexicographic over retained tokens.
  std::sort(cands.begin(), cands.end(),
            [](const Cand& a, const Cand& b) { return a.token < b.token; });

  feature_tokens_.reserve(cands.size());
  idf_.reserve(cands.size());
  for (size_t i = 0; i < cands.size(); ++i) {
    feature_index_.emplace(cands[i].token, i);
    feature_tokens_.push_back(cands[i].token);
    idf_.push_back(cands[i].idf);
  }
  return Status::OK();
}

Vec TfIdfVectorizer::Transform(const std::vector<std::string>& doc) const {
  // Delegates to the sparse path so the documented exact-equality pin
  // Transform(doc) == TransformSparse(doc).ToDense() holds at any kernel
  // dispatch: both paths share one count/idf/normalize computation instead
  // of normalizing a 0-padded dense vector with a differently-partitioned
  // reduction.
  return TransformSparse(doc).ToDense();
}

SparseVec TfIdfVectorizer::TransformSparse(
    const std::vector<std::string>& doc) const {
  SparseVec out(Dim());
  if (doc.empty() || !fitted()) return out;
  // Term counts over the document's active features only.
  std::vector<std::pair<size_t, double>> counts;
  {
    std::unordered_map<size_t, double> tf;
    tf.reserve(doc.size());
    for (const auto& tok : doc) {
      auto it = feature_index_.find(tok);
      if (it != feature_index_.end()) tf[it->second] += 1.0;
    }
    counts.assign(tf.begin(), tf.end());
  }
  std::sort(counts.begin(), counts.end());
  for (const auto& [i, tf] : counts) out.PushBack(i, tf * idf_[i]);
  if (options_.l2_normalize) {
    // Kept as a division (not multiplication by the reciprocal, which
    // differs in the last ulp); Transform delegates here so this is the
    // single normalization both paths share.
    const double n = out.Norm2();
    if (n >= 1e-12) {
      simd::DivInPlace(n, out.mutable_values().data(), out.nnz());
    }
  }
  return out;
}

Vec TfIdfVectorizer::TransformAverage(
    const std::vector<std::vector<std::string>>& docs) const {
  Vec acc(Dim(), 0.0);
  if (docs.empty()) return acc;
  for (const auto& doc : docs) {
    Axpy(1.0, TransformSparse(doc), &acc);
  }
  Scale(1.0 / static_cast<double>(docs.size()), &acc);
  return acc;
}

void TfIdfVectorizer::SaveTo(io::Checkpoint* ckpt,
                             const std::string& prefix) const {
  ckpt->PutI64(prefix + "options/max_features",
               static_cast<int64_t>(options_.max_features));
  ckpt->PutI64(prefix + "options/min_df",
               static_cast<int64_t>(options_.min_df));
  ckpt->PutBool(prefix + "options/rank_by_idf", options_.rank_by_idf);
  ckpt->PutBool(prefix + "options/l2_normalize", options_.l2_normalize);
  ckpt->PutStringList(prefix + "feature_tokens", feature_tokens_);
  ckpt->PutVec(prefix + "idf", idf_);
}

Status TfIdfVectorizer::LoadFrom(const io::Checkpoint& ckpt,
                                 const std::string& prefix) {
  TfIdfVectorizer fresh;
  int64_t max_features = 0, min_df = 0;
  RETINA_RETURN_NOT_OK(
      ckpt.GetI64(prefix + "options/max_features", &max_features));
  RETINA_RETURN_NOT_OK(ckpt.GetI64(prefix + "options/min_df", &min_df));
  RETINA_RETURN_NOT_OK(ckpt.GetBool(prefix + "options/rank_by_idf",
                                    &fresh.options_.rank_by_idf));
  RETINA_RETURN_NOT_OK(ckpt.GetBool(prefix + "options/l2_normalize",
                                    &fresh.options_.l2_normalize));
  RETINA_RETURN_NOT_OK(
      ckpt.GetStringList(prefix + "feature_tokens", &fresh.feature_tokens_));
  RETINA_RETURN_NOT_OK(ckpt.GetVec(prefix + "idf", &fresh.idf_));
  if (max_features < 0 || min_df < 0) {
    return Status::InvalidArgument("tf-idf options out of range");
  }
  fresh.options_.max_features = static_cast<size_t>(max_features);
  fresh.options_.min_df = static_cast<size_t>(min_df);
  if (fresh.idf_.size() != fresh.feature_tokens_.size()) {
    return Status::InvalidArgument(
        "tf-idf idf/feature-token size mismatch");
  }
  for (size_t i = 0; i < fresh.feature_tokens_.size(); ++i) {
    if (!fresh.feature_index_.emplace(fresh.feature_tokens_[i], i).second) {
      return Status::InvalidArgument(
          "corrupt tf-idf table: duplicate feature token '" +
          fresh.feature_tokens_[i] + "'");
    }
  }
  *this = std::move(fresh);
  return Status::OK();
}

}  // namespace retina::text
