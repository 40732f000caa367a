#!/usr/bin/env bash
# CLI smoke test: two-process campaign fan-out, end to end through
# example_campaign_cli. Run from the repository root, with the build
# directory as the argument (default: build):
#
#     tests/cli_smoke.sh build
#
# It records a corpus, attacks disjoint shard ranges in separate
# processes into partial state files, merges, and requires the merged JSON
# report to be byte-identical to both the single-process simulated run
# and a full replay from the corpus. A campaign checkpointed every two
# shards must write the same state file at 1 and 3 threads and from the
# corpus, and as one checkpointed every shard at 3 threads, and resuming
# it must reproduce the single-process report. Recordings at 1 and 3
# threads must be byte-identical to each other and to the default-thread
# one, for the delta and the raw codec alike. The default recording is a
# v3 compressed (delta codec) corpus, so the merge legs also pin the
# codec; the extra legs then require a raw-v3 recording of the same
# campaign to replay byte-identically too, keep the CLI's read path for
# the committed old-stream v1 fixture covered (corpus-info reads it as
# stream 1, and attack refuses it naming the stream), require a --round 4
# --all-subkeys report (four attack sets in one flattened list) to agree
# byte for byte whether replayed at 1 or 3 threads, simulated live, or
# merged from two range-split partials, require an SABL-enhanced
# --round 16 recording to be the same at 1 and 3 threads and its live
# attack report to equal its replay, and require malformed numeric flags,
# a mismatched corpus, --attack-sbox with --all-subkeys, the retired v1
# codec, flags a subcommand does not read and a --json report that cannot
# be written (/dev/full) to exit non-zero, and --partial with
# --checkpoint (both name the one state file) to exit 2.
set -e

cli="${1:-build}/example_campaign_cli"
d="$(mktemp -d)"
"$cli" record --traces 6000 --shard-size 1024 --out "$d/c"
"$cli" record --traces 6000 --shard-size 1024 --codec none \
  --out "$d/craw"
# Corpus bytes do not depend on the recording thread count.
"$cli" record --traces 6000 --shard-size 1024 --threads 1 \
  --out "$d/ct1"
"$cli" record --traces 6000 --shard-size 1024 --threads 3 \
  --out "$d/ct3"
cmp "$d/ct1" "$d/ct3"
cmp "$d/ct1" "$d/c"
"$cli" record --traces 6000 --shard-size 1024 --codec none \
  --threads 1 --out "$d/crawt1"
"$cli" record --traces 6000 --shard-size 1024 --codec none \
  --threads 3 --out "$d/crawt3"
cmp "$d/crawt1" "$d/crawt3"
cmp "$d/crawt1" "$d/craw"
"$cli" corpus-info --corpus "$d/c"
"$cli" corpus-info --corpus tests/data/golden_v1.sablcorp \
  | grep -q "format v1, stream 1"
if "$cli" attack --corpus tests/data/golden_v1.sablcorp \
  2> "$d/old_stream.err"; then exit 1; fi
grep -q "stream" "$d/old_stream.err"
"$cli" attack --traces 6000 --shard-size 1024 --corpus "$d/c" \
  --shards 0:3 --partial "$d/p0"
"$cli" attack --traces 6000 --shard-size 1024 --corpus "$d/c" \
  --shards 3: --partial "$d/p1"
"$cli" merge --traces 6000 --shard-size 1024 \
  --partials "$d/p0,$d/p1" --json "$d/merged.json"
"$cli" attack --traces 6000 --shard-size 1024 \
  --json "$d/single.json"
for corpus in c craw; do
  "$cli" attack --traces 6000 --shard-size 1024 \
    --corpus "$d/$corpus" --threads 3 \
    --json "$d/replayed_$corpus.json"
  cmp "$d/replayed_$corpus.json" "$d/single.json"
done
cmp "$d/merged.json" "$d/single.json"
# Checkpointing every 2 shards writes the same state file at 1
# and 3 threads, every shard at 3 threads, and when replayed from
# the corpus, and resuming that file reproduces the
# single-process report.
"$cli" attack --traces 6000 --shard-size 1024 --threads 1 \
  --checkpoint "$d/ck" --every 2
"$cli" attack --traces 6000 --shard-size 1024 --threads 3 \
  --checkpoint "$d/ck3" --every 2
cmp "$d/ck" "$d/ck3"
# The checkpoint bytes depend on the coverage alone, not on how
# often the campaign published one on the way.
"$cli" attack --traces 6000 --shard-size 1024 --threads 3 \
  --checkpoint "$d/ck1" --every 1
cmp "$d/ck" "$d/ck1"
"$cli" attack --traces 6000 --shard-size 1024 --corpus "$d/c" \
  --checkpoint "$d/ckr" --every 2
cmp "$d/ck" "$d/ckr"
"$cli" attack --traces 6000 --shard-size 1024 --resume "$d/ck" \
  --json "$d/r.json"
cmp "$d/r.json" "$d/single.json"
r4="--round 4 --traces 6000 --shard-size 1024 --all-subkeys"
"$cli" record --round 4 --traces 6000 --shard-size 1024 \
  --out "$d/c4"
"$cli" attack $r4 --corpus "$d/c4" --threads 1 \
  --json "$d/all1.json"
"$cli" attack $r4 --corpus "$d/c4" --threads 3 \
  --json "$d/all3.json"
"$cli" attack $r4 --json "$d/all_live.json"
"$cli" attack $r4 --corpus "$d/c4" --shards 0:2 --partial "$d/q0"
"$cli" attack $r4 --shards 2: --partial "$d/q1"
"$cli" merge $r4 --partials "$d/q0,$d/q1" \
  --json "$d/all_merged.json"
for report in all3 all_live all_merged; do
  cmp "$d/all1.json" "$d/$report.json"
done
# The memoryless round the live and sampled workloads simulate:
# an SABL-enhanced recording is the same at 1 and 3 threads,
# and the live attack equals the replay of that corpus.
se="--style SABL-enhanced --round 16 --traces 6000 --shard-size 1024"
"$cli" record $se --threads 1 --out "$d/se1"
"$cli" record $se --threads 3 --out "$d/se3"
cmp "$d/se1" "$d/se3"
"$cli" attack $se --json "$d/se_live.json"
"$cli" attack $se --corpus "$d/se1" --json "$d/se_replay.json"
cmp "$d/se_live.json" "$d/se_replay.json"
# Malformed numbers must fail loudly, never parse as 0 or a prefix.
if "$cli" attack --traces abc; then exit 1; fi
if "$cli" attack --shards 0:x; then exit 1; fi
# A corpus of a different campaign, and an --attack-sbox that
# --all-subkeys would override, must fail too.
if "$cli" attack --traces 3000 --shard-size 1024 \
  --corpus "$d/c"; then exit 1; fi
if "$cli" attack --round 4 --attack-sbox 1 --all-subkeys; then
  exit 1
fi
# No writer emits v1 any more, and a flag the subcommand would
# ignore fails loudly instead of being dropped.
if "$cli" record --traces 6000 --codec v1 --out "$d/cv1"; then
  exit 1
fi
if "$cli" record --traces 6000 --out "$d/r" --json "$d/j"; then
  exit 1
fi
if "$cli" merge --traces 6000 --shard-size 1024 --codec none \
  --partials "$d/p0,$d/p1"; then exit 1; fi
# A report that cannot be written fails the command.
if "$cli" attack --traces 3000 --json /dev/full; then exit 1; fi
status=0
"$cli" attack --traces 6000 --shard-size 1024 --shards 0:3 \
  --partial "$d/pc" --checkpoint "$d/cc" || status=$?
test "$status" -eq 2
test ! -e "$d/pc"
test ! -e "$d/cc"
rm -rf "$d"
