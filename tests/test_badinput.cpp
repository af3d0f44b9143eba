// Malformed-input corpus: every file under tests/data/bad is fed to the
// matching frontend (.net → parse_netlist, .yal → parse_yal). The
// contract under test is diagnostics-not-crash: the parser returns
// nullopt with at least one localized diagnostic, never UB — the
// sanitizer CI job runs this suite under ASan/UBSan to make "never UB"
// an enforced statement, not an aspiration. The corpus includes binary
// garbage, truncations, structural errors, and files that parse but fail
// semantic validation.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <vector>

#include "netlist/parser.hpp"
#include "netlist/yal.hpp"

#ifndef TW_BAD_INPUT_DIR
#error "TW_BAD_INPUT_DIR must point at the corpus directory"
#endif

namespace tw {
namespace {

std::vector<std::string> corpus(const std::string& ext) {
  std::vector<std::string> files;
  for (const auto& entry :
       std::filesystem::directory_iterator(TW_BAD_INPUT_DIR))
    if (entry.path().extension() == ext)
      files.push_back(entry.path().string());
  std::sort(files.begin(), files.end());
  return files;
}

TEST(BadInput, CorpusIsNotEmpty) {
  EXPECT_GE(corpus(".net").size(), 5u);
  EXPECT_GE(corpus(".yal").size(), 5u);
}

TEST(BadInput, NetFilesYieldDiagnosticsNotCrashes) {
  for (const std::string& path : corpus(".net")) {
    SCOPED_TRACE(path);
    ParseReport report;
    const std::optional<Netlist> nl = parse_netlist_file(path, report);
    EXPECT_FALSE(nl.has_value());
    EXPECT_FALSE(report.ok());
    EXPECT_FALSE(report.str().empty());
    // Saturation bounds the damage a pathological file can do.
    EXPECT_LE(static_cast<int>(report.diagnostics.size()),
              ParseReport::kMaxDiagnostics);
  }
}

TEST(BadInput, YalFilesYieldDiagnosticsNotCrashes) {
  for (const std::string& path : corpus(".yal")) {
    SCOPED_TRACE(path);
    ParseReport report;
    const std::optional<Netlist> nl = parse_yal_file(path, report);
    EXPECT_FALSE(nl.has_value());
    EXPECT_FALSE(report.ok());
    EXPECT_FALSE(report.str().empty());
    EXPECT_LE(static_cast<int>(report.diagnostics.size()),
              ParseReport::kMaxDiagnostics);
  }
}

TEST(BadInput, ThrowingApisCarryTheFullReport) {
  for (const std::string& path : corpus(".net")) {
    SCOPED_TRACE(path);
    try {
      (void)parse_netlist_file(path);
      FAIL() << "expected ParseError";
    } catch (const ParseError& e) {
      EXPECT_FALSE(e.report().ok());
      EXPECT_NE(std::string(e.what()).find("parse error"), std::string::npos);
    }
  }
  for (const std::string& path : corpus(".yal")) {
    SCOPED_TRACE(path);
    EXPECT_THROW((void)parse_yal_file(path), ParseError);
  }
}

TEST(BadInput, MultipleDefectsAreAllReported) {
  ParseReport report;
  const auto nl = parse_netlist_file(
      std::string(TW_BAD_INPUT_DIR) + "/multiple_errors.net", report);
  EXPECT_FALSE(nl.has_value());
  // One pass over the file surfaces several independent defects.
  EXPECT_GE(report.diagnostics.size(), 3u) << report.str();
  // Diagnostics carry 1-based line numbers.
  for (const ParseDiagnostic& d : report.diagnostics)
    EXPECT_GE(d.line, 0) << d.str();
}

TEST(BadInput, GeometryDefectsNameTheirCell) {
  // Each file scans cleanly; validation rejects it with one diagnostic
  // naming the defective cell and the defect.
  const struct {
    const char* file;
    const char* cell;
    const char* defect;
  } cases[] = {
      {"overlapping_tiles.net", "cell 0 'blob'", "tiles 0 and 1 overlap"},
      {"degenerate_tile.net", "cell 0 'flat'", "is degenerate"},
      {"pin_outside_bbox.net", "cell 0 'stray'", "outside bbox"},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.file);
    ParseReport report;
    EXPECT_FALSE(parse_netlist_file(
                     std::string(TW_BAD_INPUT_DIR) + "/" + c.file, report)
                     .has_value());
    ASSERT_EQ(report.diagnostics.size(), 1u) << report.str();
    const std::string& msg = report.diagnostics[0].message;
    EXPECT_NE(msg.find(c.cell), std::string::npos) << msg;
    EXPECT_NE(msg.find(c.defect), std::string::npos) << msg;
  }
}

TEST(BadInput, SaturationCountsTheSuppressedTail) {
  // 200 defective lines against a 50-diagnostic cap: the overflow must be
  // counted and named, not silently dropped, so a saturated report is
  // distinguishable from one whose input had exactly kMaxDiagnostics
  // defects.
  std::string text;
  for (int i = 0; i < 200; ++i) text += "bogus directive " + std::to_string(i) + "\n";
  ParseReport report;
  const auto nl = parse_netlist_string(text, report);
  EXPECT_FALSE(nl.has_value());
  ASSERT_TRUE(report.saturated()) << report.str();
  EXPECT_EQ(static_cast<int>(report.diagnostics.size()),
            ParseReport::kMaxDiagnostics);
  EXPECT_GT(report.suppressed, 0);
  EXPECT_EQ(report.total(),
            ParseReport::kMaxDiagnostics + report.suppressed);
  EXPECT_NE(report.str().find("more diagnostic(s) suppressed"),
            std::string::npos)
      << report.str();
}

TEST(BadInput, UnsaturatedReportsDoNotClaimSuppression) {
  ParseReport report;
  (void)parse_netlist_file(
      std::string(TW_BAD_INPUT_DIR) + "/multiple_errors.net", report);
  EXPECT_EQ(report.suppressed, 0);
  EXPECT_EQ(report.total(), static_cast<int>(report.diagnostics.size()));
  EXPECT_EQ(report.str().find("suppressed"), std::string::npos);
}

TEST(BadInput, YalResynchronizesAcrossModules) {
  ParseReport report;
  const auto nl = parse_yal_file(
      std::string(TW_BAD_INPUT_DIR) + "/bad_statements.yal", report);
  EXPECT_FALSE(nl.has_value());
  // Both broken modules (a and b) are reported, not just the first.
  EXPECT_GE(report.diagnostics.size(), 2u) << report.str();
}

}  // namespace
}  // namespace tw
