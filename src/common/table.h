// Console table writer used by the benchmark harnesses to print
// paper-style tables (aligned columns).

#ifndef RETINA_COMMON_TABLE_H_
#define RETINA_COMMON_TABLE_H_

#include <string>
#include <vector>

namespace retina {

/// \brief Accumulates rows and renders them as an aligned console table.
///
/// Used by every bench binary so that reproduced tables read like the
/// paper's. Cells are free-form strings; numeric formatting is the caller's
/// job (see FormatDouble).
class TableWriter {
 public:
  /// \param title Caption printed above the table.
  /// \param header Column names.
  TableWriter(std::string title, std::vector<std::string> header);

  /// Appends one row; must have the same arity as the header.
  void AddRow(std::vector<std::string> row);

  /// Renders the aligned table to a string.
  std::string Render() const;

  /// Renders to stdout.
  void Print() const;

  size_t num_rows() const { return rows_.size(); }

 private:
  std::string title_;
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace retina

#endif  // RETINA_COMMON_TABLE_H_
