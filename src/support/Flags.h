//===- support/Flags.h - Tiny command-line flag parser -------------------===//
//
// Part of the ccsim project (CGO 2004 code cache eviction reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A tiny `--name=value` flag parser used by the bench and example
/// binaries. Flags are declared with defaults; unknown flags produce an
/// error message and a usage dump rather than being silently ignored.
///
//===----------------------------------------------------------------------===//

#ifndef CCSIM_SUPPORT_FLAGS_H
#define CCSIM_SUPPORT_FLAGS_H

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace ccsim {

/// Declarative flag set. Declare flags, then parse(argc, argv); accessors
/// return the parsed or default value.
class FlagSet {
public:
  explicit FlagSet(std::string ProgramDescription);

  /// Declares flags. Returns an index used with the typed getters.
  void addInt(const std::string &Name, int64_t Default,
              const std::string &Help);
  void addDouble(const std::string &Name, double Default,
                 const std::string &Help);
  void addString(const std::string &Name, const std::string &Default,
                 const std::string &Help);
  void addBool(const std::string &Name, bool Default,
               const std::string &Help);

  /// Parses `--name=value` and `--name value` arguments. `--help` prints
  /// usage and returns false. Unknown flags print an error and return
  /// false. Non-flag positional arguments are collected in positional().
  bool parse(int Argc, const char *const *Argv);

  int64_t getInt(const std::string &Name) const;
  double getDouble(const std::string &Name) const;
  std::string getString(const std::string &Name) const;
  bool getBool(const std::string &Name) const;

  const std::vector<std::string> &positional() const { return Positional; }

  /// Renders the usage text.
  std::string usage() const;

private:
  enum class KindType { Int, Double, String, Bool };

  struct Flag {
    std::string Name;
    KindType Kind;
    std::string Help;
    int64_t IntValue = 0;
    double DoubleValue = 0.0;
    std::string StringValue;
    bool BoolValue = false;
    std::string DefaultText;
  };

  std::string Description;
  std::vector<Flag> Flags;
  std::vector<std::string> Positional;

  Flag *find(const std::string &Name);
  const Flag *find(const std::string &Name) const;
  bool assign(Flag &F, const std::string &Value);
};

/// The one bounded integer flag reader: the value of --\p Name when it
/// lies in [\p Lo, \p Hi], else nullopt with "bad <name> <value> (need
/// <Lo>..<Hi>)" in \p Error. Every count and size flag a driver narrows
/// to an unsigned field goes through it, so a negative or oversized value
/// is a usage error instead of wrapping.
std::optional<int64_t> boundedIntFlag(const FlagSet &Flags,
                                      const std::string &Name, int64_t Lo,
                                      int64_t Hi, std::string *Error);

} // namespace ccsim

#endif // CCSIM_SUPPORT_FLAGS_H
