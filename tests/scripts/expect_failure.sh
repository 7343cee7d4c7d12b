#!/usr/bin/env bash
# Runs a command that must be refused: passes only when the command exits
# non-zero AND its combined output matches the extended regex, so a test
# pins both the refusal and the cause it names.
#
# Usage: expect_failure.sh <regex> <command> [args...]
set -u

pattern=$1
shift
if output=$("$@" 2>&1); then
  printf 'expected a non-zero exit, got 0:\n%s\n' "$output" >&2
  exit 1
fi
printf '%s\n' "$output"
if ! grep -Eq -- "$pattern" <<<"$output"; then
  printf 'output does not match /%s/\n' "$pattern" >&2
  exit 1
fi
