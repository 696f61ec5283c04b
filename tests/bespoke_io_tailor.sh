#!/bin/sh
# End-to-end run of `bespoke_io tailor` on the exported default core:
# export, tailor mult, and hash the result for three pass lists whose
# exported netlists are pinned by content hash. The two cuts that rest
# on the full analysis horizon are also checked symbolically; the SAT
# case at --sat-depth 30 is not, because its proof covers only the
# first 30 of mult's 212 cycles (a bounded envelope, DESIGN.md 13.3)
# and `check` compares the whole run. That case, and only that one,
# must warn that the depth is below the horizon.
#
# usage: bespoke_io_tailor.sh PATH/TO/bespoke_io WORKDIR
set -eu
io=$1
rm -rf "$2"
mkdir -p "$2"
cd "$2"

"$io" export --core default -o core.json

# tailor_case WANT_HASH TAILOR_FLAGS... (stderr kept in err.txt)
tailor_case() {
    want=$1
    shift
    "$io" tailor -i core.json --app mult -o out.json \
        --status-json s.json "$@" 2>err.txt || {
        cat err.txt >&2
        exit 1
    }
    test -s s.json
    got=$("$io" hash -i out.json)
    if [ "$got" != "$want" ]; then
        echo "tailor $*: exported hash $got, expected $want" >&2
        exit 1
    fi
}

# depth_warned: did the last tailor_case warn about a short SAT depth?
depth_warned() {
    grep -q "below mult's analysis horizon of 212 cycles" err.txt
}

tailor_case 334bb3b4d4d2f95a --passes default
if depth_warned; then
    echo "tailor --passes default: unexpected depth warning" >&2
    exit 1
fi
"$io" check -i out.json --app mult
tailor_case 20c82da8653a86e8 --passes all
if depth_warned; then
    echo "tailor --passes all: unexpected depth warning" >&2
    exit 1
fi
"$io" check -i out.json --app mult
tailor_case 3edec59e3caea150 --passes default,sat-never-toggle \
    --sat-depth 30
if ! depth_warned; then
    echo "tailor --sat-depth 30: no warning that depth 30 is below" \
        "mult's horizon" >&2
    exit 1
fi
grep -q "depth 30" err.txt
