#!/bin/sh
# Runs the tests a CI step names, and fails when a name matches no test.
#
#   .github/named-tests.sh 'TestA|TestB' [go test flags] pkg...
#
# Each |-separated name must prefix at least one test, benchmark,
# fuzz target or example listed by `go test -list` in the given
# packages; otherwise a renamed or deleted test would silently drop
# out of the step while the step still passed. The names then run as
# one -run pattern, unanchored as before, so a prefix such as
# TestAllocBudget still selects every test it starts.
set -eu
names=$1
shift
flags=
pkgs=
for arg in "$@"; do
	case $arg in
	-*) flags="$flags $arg" ;;
	*) pkgs="$pkgs $arg" ;;
	esac
done
# shellcheck disable=SC2086 # word splitting of the lists is intended
listed=$(go test -list . $pkgs)
missing=0
for name in $(echo "$names" | tr '|' ' '); do
	if ! echo "$listed" | grep -q "^$name"; then
		echo "named test $name matches no test in$pkgs" >&2
		missing=1
	fi
done
[ "$missing" = 0 ]
# shellcheck disable=SC2086
go test $flags -run "$names" -v $pkgs
