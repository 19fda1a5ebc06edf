//===- support/Flags.cpp - Tiny command-line flag parser -----------------===//

#include "support/Flags.h"
#include "support/Contracts.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>

using namespace ccsim;

FlagSet::FlagSet(std::string ProgramDescription)
    : Description(std::move(ProgramDescription)) {}

void FlagSet::addInt(const std::string &Name, int64_t Default,
                     const std::string &Help) {
  CCSIM_ASSERT(!find(Name), "duplicate flag");
  Flag F;
  F.Name = Name;
  F.Kind = KindType::Int;
  F.Help = Help;
  F.IntValue = Default;
  F.DefaultText = std::to_string(Default);
  Flags.push_back(std::move(F));
}

void FlagSet::addDouble(const std::string &Name, double Default,
                        const std::string &Help) {
  CCSIM_ASSERT(!find(Name), "duplicate flag");
  Flag F;
  F.Name = Name;
  F.Kind = KindType::Double;
  F.Help = Help;
  F.DoubleValue = Default;
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "%g", Default);
  F.DefaultText = Buf;
  Flags.push_back(std::move(F));
}

void FlagSet::addString(const std::string &Name, const std::string &Default,
                        const std::string &Help) {
  CCSIM_ASSERT(!find(Name), "duplicate flag");
  Flag F;
  F.Name = Name;
  F.Kind = KindType::String;
  F.Help = Help;
  F.StringValue = Default;
  F.DefaultText = Default.empty() ? "\"\"" : Default;
  Flags.push_back(std::move(F));
}

void FlagSet::addBool(const std::string &Name, bool Default,
                      const std::string &Help) {
  CCSIM_ASSERT(!find(Name), "duplicate flag");
  Flag F;
  F.Name = Name;
  F.Kind = KindType::Bool;
  F.Help = Help;
  F.BoolValue = Default;
  F.DefaultText = Default ? "true" : "false";
  Flags.push_back(std::move(F));
}

FlagSet::Flag *FlagSet::find(const std::string &Name) {
  for (auto &F : Flags)
    if (F.Name == Name)
      return &F;
  return nullptr;
}

const FlagSet::Flag *FlagSet::find(const std::string &Name) const {
  for (const auto &F : Flags)
    if (F.Name == Name)
      return &F;
  return nullptr;
}

bool FlagSet::assign(Flag &F, const std::string &Value) {
  char *End = nullptr;
  switch (F.Kind) {
  case KindType::Int:
    F.IntValue = std::strtoll(Value.c_str(), &End, 10);
    return End && *End == '\0' && !Value.empty();
  case KindType::Double:
    F.DoubleValue = std::strtod(Value.c_str(), &End);
    return End && *End == '\0' && !Value.empty();
  case KindType::String:
    F.StringValue = Value;
    return true;
  case KindType::Bool:
    if (Value == "true" || Value == "1") {
      F.BoolValue = true;
      return true;
    }
    if (Value == "false" || Value == "0") {
      F.BoolValue = false;
      return true;
    }
    return false;
  }
  return false;
}

bool FlagSet::parse(int Argc, const char *const *Argv) {
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (Arg == "--help" || Arg == "-h") {
      std::fputs(usage().c_str(), stdout);
      return false;
    }
    if (Arg.rfind("--", 0) != 0) {
      Positional.push_back(Arg);
      continue;
    }
    std::string Name, Value;
    const size_t Eq = Arg.find('=');
    bool HaveValue = false;
    if (Eq != std::string::npos) {
      Name = Arg.substr(2, Eq - 2);
      Value = Arg.substr(Eq + 1);
      HaveValue = true;
    } else {
      Name = Arg.substr(2);
    }
    Flag *F = find(Name);
    if (!F) {
      std::fprintf(stderr, "error: unknown flag '--%s'\n", Name.c_str());
      std::fputs(usage().c_str(), stderr);
      return false;
    }
    if (!HaveValue) {
      // Bools may appear bare; other kinds take the next argument.
      if (F->Kind == KindType::Bool) {
        F->BoolValue = true;
        continue;
      }
      if (I + 1 >= Argc) {
        std::fprintf(stderr, "error: flag '--%s' expects a value\n",
                     Name.c_str());
        return false;
      }
      Value = Argv[++I];
    }
    if (!assign(*F, Value)) {
      std::fprintf(stderr, "error: bad value '%s' for flag '--%s'\n",
                   Value.c_str(), Name.c_str());
      return false;
    }
  }
  return true;
}

int64_t FlagSet::getInt(const std::string &Name) const {
  const Flag *F = find(Name);
  CCSIM_ASSERT(F && F->Kind == KindType::Int, "unknown or mistyped flag");
  return F->IntValue;
}

double FlagSet::getDouble(const std::string &Name) const {
  const Flag *F = find(Name);
  CCSIM_ASSERT(F && F->Kind == KindType::Double, "unknown or mistyped flag");
  return F->DoubleValue;
}

std::string FlagSet::getString(const std::string &Name) const {
  const Flag *F = find(Name);
  CCSIM_ASSERT(F && F->Kind == KindType::String, "unknown or mistyped flag");
  return F->StringValue;
}

bool FlagSet::getBool(const std::string &Name) const {
  const Flag *F = find(Name);
  CCSIM_ASSERT(F && F->Kind == KindType::Bool, "unknown or mistyped flag");
  return F->BoolValue;
}

std::string FlagSet::usage() const {
  std::string Out = Description + "\n\nFlags:\n";
  for (const auto &F : Flags) {
    Out += "  --" + F.Name;
    Out += " (default: " + F.DefaultText + ")\n";
    Out += "      " + F.Help + "\n";
  }
  return Out;
}

std::optional<int64_t> ccsim::boundedIntFlag(const FlagSet &Flags,
                                             const std::string &Name,
                                             int64_t Lo, int64_t Hi,
                                             std::string *Error) {
  const int64_t Value = Flags.getInt(Name);
  if (Value >= Lo && Value <= Hi)
    return Value;
  if (Error)
    *Error = "bad " + Name + " " + std::to_string(Value) + " (need " +
             std::to_string(Lo) + ".." + std::to_string(Hi) + ")";
  return std::nullopt;
}

std::optional<double> ccsim::scaleFlag(const FlagSet &Flags,
                                       const std::string &Name,
                                       std::string *Error, double Max) {
  const double Value = Flags.getDouble(Name);
  if (std::isfinite(Value) && Value > 0.0 && Value <= Max)
    return Value;
  if (Error) {
    char Buf[128];
    std::snprintf(Buf, sizeof(Buf),
                  "bad %s %g (need a finite value in (0, %g])", Name.c_str(),
                  Value, Max);
    *Error = Buf;
  }
  return std::nullopt;
}
