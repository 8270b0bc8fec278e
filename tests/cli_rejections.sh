#!/bin/sh
# Table-driven check of what dlb_campaign accepts on its command line.
#
#   tests/cli_rejections.sh path/to/dlb_campaign path/to/source-dir
#
# Each row gives the expected exit code, a substring stderr must contain
# ("" for any) and the arguments. Rejections exit 2 before any scenario
# runs; the acceptance rows replay every documented command shape under
# --dry-run. Runs in a fresh temporary directory, so nothing is written
# next to the sources.
bin=$(cd "$(dirname "$1")" && pwd)/$(basename "$1")
spec=$(cd "$2" && pwd)/specs/discrepancy_smoke.spec
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
cd "$work" || exit 1

failures=0
row() {
    want=$1
    needle=$2
    shift 2
    got=0
    "$bin" "$@" > /dev/null 2> err.txt || got=$?
    if [ "$got" -ne "$want" ] ||
        { [ -n "$needle" ] && ! grep -qF -- "$needle" err.txt; }; then
        echo "FAIL: dlb_campaign $*"
        echo "  exit $got (want $want), stderr must contain '$needle':"
        sed 's/^/  | /' err.txt
        failures=$((failures + 1))
    fi
}

small="--nodes 16 --rounds 4 --quiet"
windows="--measure-windows 2 --window-rounds 2 --resume x.ckpt"

# Mode pairs: at most one of --queue, --merge and --measure-windows, and
# no flag outside the selected mode.
row 2 "--measure-windows and --merge are exclusive" $windows --merge s0.csv
row 2 "--measure-windows and --queue are exclusive" $windows --queue q
row 2 "--measure-windows and --shard are exclusive" $windows --shard 0/2
row 2 "checkpoint" $windows --checkpoint-every 5 --checkpoint-dir d
row 2 "manifest" $windows --manifest m.manifest
row 2 "--merge and --queue are exclusive" --merge s0.csv --queue q
row 2 "--merge and --shard are exclusive" --merge s0.csv --shard 0/2
row 2 "--merge and --resume are exclusive" --merge s0.csv --resume x.ckpt
row 2 "--lambda-cache" --merge s0.csv --lambda-cache l.sidecar
row 2 "checkpoint" --merge s0.csv --checkpoint-every 5 --checkpoint-dir d
row 2 "--timing" --merge s0.csv --timing
row 2 "--queue and --shard are exclusive" --queue q --shard 0/2 $small
row 2 "--queue and --resume are exclusive" --queue q --resume x.ckpt $small

# Flags that belong to one mode only.
row 2 "--window-rounds only applies to --measure-windows" --window-rounds 5 $small
row 2 "--lease-expiry only applies to --queue" --lease-expiry 5 $small
row 2 "--manifests only applies to --merge" --manifests a.manifest $small
row 2 "--measure-windows needs --resume" --measure-windows 2 --window-rounds 2
row 2 "--measure-windows needs --window-rounds" --measure-windows 2 --resume x.ckpt

# Values the CLI or the library refuses.
row 2 "--resume needs" --resume $small
row 2 "--queue needs" --queue $small
row 2 "--merge needs" --merge --csv out.csv
row 2 "--lambda-cache needs" --lambda-cache $small
row 2 "--checkpoint-dir needs" --checkpoint-dir $small
row 2 "thread counts must be >= 0" --threads -1 $small
row 2 "--progress" --progress=0 $small
row 2 "lease" --queue q --lease-expiry 0 $small
row 2 "--shard" --shard 2/2 $small
row 2 "must be set together" --checkpoint-every 5 $small
row 2 "tier of the graph cache" --lambda-cache l.sidecar --no-graph-cache $small
row 2 "seeds must be >= 1" --seeds 0 --dry-run
row 2 "repeats 'fos'" --sweep.scheme fos,fos --dry-run

# Names the CLI does not know.
row 2 "unknown option --nodez" --nodez 5 --dry-run
row 2 "unexpected argument" "$spec" --dry-run
row 2 "unknown option --rng-version" --rng-version 2 --dry-run

# A repeated flag, a valueless flag and a flag its mode does not read.
row 2 "--nodes given twice" --nodes 10 --nodes 20 --dry-run
row 2 "--sweep.nodes given twice" --sweep.nodes 16,32 --sweep.nodes 64 --dry-run
row 2 "'seeds' and 'sweep.seed' (--sweep.seed)" --sweep.seed 5,6 --seeds 3 \
    --dry-run
for flag in --series-dir --threads --record-every --measure-windows; do
    row 2 "$flag needs a value" $small $flag
done
for flag in "--threads 2" "--engine-threads 2" --no-graph-cache \
    --no-scratch-pool "--series-dir d" --progress "--lease-expiry 5" \
    "--lambda-cache l.sidecar" "--checkpoint-every 5"; do
    row 2 "--merge and ${flag%% *} are exclusive" --merge s0.csv,s1.csv $flag
done
for flag in "--threads 2" "--engine-threads 2" --no-graph-cache \
    --no-scratch-pool "--series-dir d" "--lambda-cache l.sidecar" --timing \
    --progress "--record-every 2" "--lease-expiry 5"; do
    row 2 "--measure-windows and ${flag%% *} are exclusive" $small $windows \
        $flag
done
row 2 "--queue and --threads are exclusive" --queue q --threads 4 $small
row 2 "--merge and --resume are exclusive" --dry-run --merge s0.csv --resume x

# Every documented command shape (README.md, docs/, specs/README.md,
# bench/README.md, the CI workflow) stays valid.
row 0 "" --nodes 1024 --rounds 400 \
    --sweep.topology torus,hypercube,random_regular \
    --sweep.scheme fos,sos --sweep.rounding randomized,floor --seeds 2 \
    --threads 8 --json campaign.json --csv campaign.csv --dry-run
row 0 "" --nodes 256 --rounds 200 --sweep.scheme fos,sos --seeds 2 --quiet \
    --dry-run
row 0 "" --nodes 256 --rounds 200 --tokens_per_node 100 --seeds 2 \
    --threads 1 --engine-threads 4 --json te.json --csv te.csv \
    --series-dir se --quiet --dry-run
row 0 "" --switch local --switch_value 8 --record-every 5 --threads 8 \
    --json l8.json --csv l8.csv --series-dir l8 --quiet --dry-run
row 0 "" --spec "$spec" --threads 8 --json report.json --csv report.csv \
    --dry-run
row 0 "" --spec "$spec" --shard 0/2 --csv s0.csv --dry-run
row 0 "" --spec "$spec" --merge s0.csv,s1.csv --csv full.csv --json full.json \
    --quiet --dry-run
row 0 "" --spec "$spec" --threads 2 --no-graph-cache --no-scratch-pool \
    --csv cold.csv --quiet --dry-run
row 0 "" --spec "$spec" --threads 2 --shard 1/2 --lambda-cache l.sidecar \
    --csv cb1.csv --quiet --dry-run
row 0 "" --spec "$spec" --threads 2 --lambda-cache l.sidecar --timing \
    --quiet --dry-run
row 0 "" --spec "$spec" --shard 1/4 --engine-threads 0 \
    --checkpoint-every 100000 --checkpoint-dir ckpt_1 \
    --resume ckpt_1/0_x.ckpt --csv shard_1.csv --quiet --dry-run
row 0 "" --spec "$spec" --queue q --checkpoint-every 500 \
    --checkpoint-dir q/ckpt --lease-expiry 60 --progress \
    --csv full.csv --json full.json --manifest q.manifest --quiet --dry-run
row 0 "" --spec "$spec" --resume ckpt/0_x.ckpt --csv full.csv --dry-run
row 0 "" --spec "$spec" --resume ckpt/0_x.ckpt --measure-windows 8 \
    --window-rounds 200 --csv windows.csv --json windows.json --quiet \
    --dry-run
row 0 "" --spec "$spec" --threads 4 --trace trace.json --csv out.csv --dry-run
row 0 "" --spec "$spec" --threads 2 --trace trace.json \
    --metrics metrics.jsonl --progress=1 --manifest run.manifest \
    --csv traced.csv --json traced.json --quiet --dry-run
row 0 "" --spec "$spec" --merge os0.csv,os1.csv \
    --manifests os0.manifest,os1.manifest --manifest merged.manifest \
    --record-every 5 --csv obs_merged.csv --quiet --dry-run

if [ "$failures" -ne 0 ]; then
    echo "$failures cli_rejections row(s) failed"
    exit 1
fi
echo "cli_rejections: all rows pass"
