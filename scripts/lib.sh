# Shared helpers for scripts/*.sh — source this, don't execute it:
#   source "$(dirname "${BASH_SOURCE[0]}")/lib.sh"
# Sourcing sets ROOT to the repository root and defines the helpers below,
# so every script configures build trees with the same flag vocabulary
# instead of hand-copying cmake invocations.

ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"

# configure_tree <build-dir> <build-type> [extra cmake args...]
# One cmake configure with the repo as source; extra args win (last flag
# repeated takes effect), so callers can override the type defaults.
configure_tree() {
  local build="$1" type="$2"
  shift 2
  cmake -B "$build" -S "$ROOT" -DCMAKE_BUILD_TYPE="$type" "$@"
}

# build_tree <build-dir> [cmake --build args, e.g. --target foo]
# One job per CPU: a bare -j starts as many compile jobs as make can find,
# which can exhaust memory or process ids on a small machine.
build_tree() {
  local build="$1"
  shift
  cmake --build "$build" -j "$(nproc)" "$@"
}

# ctest_tree <build-dir> [ctest args, e.g. -L recovery]
ctest_tree() {
  local build="$1"
  shift
  (cd "$build" && ctest --output-on-failure "$@")
}

# require_binary <path> — fail loudly when a binary is missing (e.g. a
# cmake option silently skipped its target): a tool that never ran must not
# look like a tool that passed.
require_binary() {
  if [[ ! -x "$1" ]]; then
    echo "${BASH_SOURCE[1]##*/}: binary missing: $1" >&2
    echo "(target skipped or build failed — refusing to skip it silently)" >&2
    exit 1
  fi
}

# run_provlint <build-dir> — build the repo linter in <build-dir> and run
# both of its modes: the golden-fixture self-test (proves every rule still
# fires) and the full-tree lint (proves the tree is clean). Shared by
# run_lint.sh and check_build.sh so the two gates can never drift apart.
run_provlint() {
  local build="$1"
  build_tree "$build" --target provlint
  require_binary "$build/provlint"
  "$build/provlint" --self-test "$ROOT/tools/provlint/fixtures"
  "$build/provlint" --root "$ROOT"
}
