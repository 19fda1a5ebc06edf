//===- support/StringUtils.cpp - Text formatting helpers -----------------===//

#include "support/StringUtils.h"

#include <cmath>
#include <cstdio>

using namespace ccsim;

std::string ccsim::formatDouble(double Value, int Decimals) {
  char Buffer[64];
  std::snprintf(Buffer, sizeof(Buffer), "%.*f", Decimals, Value);
  return std::string(Buffer);
}

std::string ccsim::formatPercent(double Fraction, int Decimals) {
  return formatDouble(Fraction * 100.0, Decimals) + "%";
}

std::string ccsim::formatBytes(uint64_t Bytes) {
  static const char *Units[] = {"B", "KB", "MB", "GB", "TB"};
  double Value = static_cast<double>(Bytes);
  size_t Unit = 0;
  while (Value >= 1024.0 && Unit + 1 < sizeof(Units) / sizeof(Units[0])) {
    Value /= 1024.0;
    ++Unit;
  }
  if (Unit == 0)
    return std::to_string(Bytes) + " B";
  return formatDouble(Value, 1) + " " + Units[Unit];
}

std::string ccsim::formatWithCommas(uint64_t Value) {
  std::string Digits = std::to_string(Value);
  std::string Out;
  Out.reserve(Digits.size() + Digits.size() / 3);
  size_t Lead = Digits.size() % 3;
  if (Lead == 0)
    Lead = 3;
  for (size_t I = 0; I < Digits.size(); ++I) {
    if (I != 0 && (I - Lead) % 3 == 0 && I >= Lead)
      Out += ',';
    Out += Digits[I];
  }
  return Out;
}

std::string ccsim::padRight(const std::string &S, size_t Width) {
  if (S.size() >= Width)
    return S;
  return S + std::string(Width - S.size(), ' ');
}

std::string ccsim::padLeft(const std::string &S, size_t Width) {
  if (S.size() >= Width)
    return S;
  return std::string(Width - S.size(), ' ') + S;
}

std::vector<std::string> ccsim::splitList(const std::string &Text) {
  std::vector<std::string> Parts;
  std::string Cur;
  for (char C : Text) {
    if (C == ',') {
      if (!Cur.empty())
        Parts.push_back(Cur);
      Cur.clear();
    } else {
      Cur.push_back(C);
    }
  }
  if (!Cur.empty())
    Parts.push_back(Cur);
  return Parts;
}
