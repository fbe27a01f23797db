#!/usr/bin/env bash
# Counts the lines a change adds and removes, split into code, comment and
# blank lines, and prints the net code lines.
#
# Usage: scripts/loc_delta.sh <base-rev> [paths...]   (default path: src)
#
# Reads `git diff <base-rev> -- <paths>`, i.e. the base revision against the
# working tree. Files not yet known to git are not in that diff; `git add`
# (or `git add -N`) them first.
#
# A line is blank if it holds only whitespace. In C/C++ sources a comment line
# starts with `//`, or lies in a `/* ... */` block; in shell, Python and CMake
# files it starts with `#`. Every other line is code. A line of code with a
# trailing comment counts as code.

set -euo pipefail
cd "$(dirname "$0")/.."

if [[ $# -lt 1 ]]; then
  echo "usage: $0 <base-rev> [paths...]" >&2
  exit 2
fi
base="$1"
shift
paths=("$@")
[[ ${#paths[@]} -eq 0 ]] && paths=(src)

git diff --no-color --no-ext-diff -U0 "$base" -- "${paths[@]}" | awk '
  function kind(line,   t) {
    t = line
    sub(/^[ \t\r]+/, "", t)
    if (t == "") return "blank"
    if (style == "c") {
      if (in_block[side]) {
        if (index(t, "*/") > 0) in_block[side] = 0
        return "comment"
      }
      if (substr(t, 1, 2) == "//") return "comment"
      if (substr(t, 1, 2) == "/*") {
        if (index(substr(t, 3), "*/") == 0) in_block[side] = 1
        return "comment"
      }
      return "code"
    }
    if (style == "hash" && substr(t, 1, 1) == "#") return "comment"
    return "code"
  }
  /^diff --git / {
    file = $NF
    style = "other"
    if (file ~ /\.(h|hh|hpp|c|cc|cpp|cxx)$/) style = "c"
    else if (file ~ /(\.(sh|py|cmake)|CMakeLists\.txt)$/) style = "hash"
    in_block["+"] = 0
    in_block["-"] = 0
    in_header = 1
    next
  }
  /^@@/ { in_header = 0; next }
  in_header { next }
  /^[+-]/ {
    side = substr($0, 1, 1)
    n[side, kind(substr($0, 2))]++
  }
  END {
    printf "%-8s %8s %8s %8s\n", "", "added", "removed", "net"
    split("code comment blank", kinds, " ")
    for (i = 1; i <= 3; i++) {
      k = kinds[i]
      printf "%-8s %8d %8d %+8d\n", k, n["+", k], n["-", k], n["+", k] - n["-", k]
    }
    printf "net code lines: %+d\n", n["+", "code"] - n["-", "code"]
  }
'
