#!/bin/sh
# End-to-end CLI test: the complete Fig. 5 workflow driven through the
# command-line tools, plus detection, disassembly, hardening-tier, daemon
# and allocator smoke checks.
# Usage: cli_roundtrip.sh <tools-dir>
set -e
TOOLS="$1"
WORK="$(mktemp -d)"
DAEMON=
trap '[ -z "$DAEMON" ] || kill "$DAEMON" 2> /dev/null; rm -rf "$WORK"' EXIT
cd "$WORK"

fail() { echo "FAIL: $1" >&2; exit 1; }

# Generate a benchmark and a CVE case.
"$TOOLS/rfgen" list > list.txt 2>&1
grep -q "perlbench" list.txt || fail "rfgen list"
"$TOOLS/rfgen" spec mcf mcf.rfbin 2> /dev/null
"$TOOLS/rfgen" cve wireshark cve.rfbin 2> cve_info.txt
ATTACK=$(sed -n 's/.*attack input: \([0-9]*\).*/\1/p' cve_info.txt)
BENIGN=$(sed -n 's/.*benign input: \([0-9]*\).*/\1/p' cve_info.txt)
[ -n "$ATTACK" ] || fail "rfgen cve did not print the attack input"

# Baseline run.
"$TOOLS/rfrun" mcf.rfbin 50 0x3f > base_out.txt || fail "baseline run"

# Two-phase workflow through the CLIs.
"$TOOLS/redfat" --profile mcf.rfbin mcf.prof.rfbin
"$TOOLS/rfrun" --runtime=redfat --policy=log --profile-dump prof.txt \
    mcf.prof.rfbin 50 0x3e > /dev/null || fail "profiling run"
[ -s prof.txt ] || fail "empty profile dump"
"$TOOLS/redfat" --profile-data prof.txt mcf.rfbin mcf.hard.rfbin
"$TOOLS/rfrun" --runtime=redfat mcf.hard.rfbin 50 0x3f > hard_out.txt \
    || fail "hardened run aborted on a clean program"
cmp base_out.txt hard_out.txt || fail "hardened output differs from baseline"

# Detection: the CVE attack must abort (exit 134), benign must pass.
"$TOOLS/redfat" --sitemap cve.map cve.rfbin cve.hard.rfbin
grep -q "full" cve.map || fail "sitemap missing full-check sites"
if "$TOOLS/rfrun" --runtime=redfat --sitemap cve.map cve.hard.rfbin "$ATTACK" \
    > /dev/null 2> attack_err.txt; then
  fail "attack not detected"
else
  [ $? -eq 134 ] || fail "unexpected attack exit code"
fi
grep -q "out-of-bounds write at 0x" attack_err.txt || fail "unsymbolized error report"
"$TOOLS/rfrun" --runtime=redfat cve.hard.rfbin "$BENIGN" > /dev/null \
    || fail "benign CVE input rejected"
# Memcheck misses the same attack (exit 0, no reports).
"$TOOLS/rfrun" --runtime=memcheck --policy=log cve.rfbin "$ATTACK" 2> mc_err.txt \
    > /dev/null || fail "memcheck run failed"
grep -q "MEMORY ERROR" mc_err.txt && fail "memcheck should miss the skip"

# Observability: rewrite-time stats/metrics/trace, runtime metrics/trace,
# and the joined per-site report.
"$TOOLS/redfat" --stats cve.stats.json --metrics cve.rw_metrics.json \
    --trace cve.rw_trace.json cve.rfbin cve.obs.rfbin
cmp cve.hard.rfbin cve.obs.rfbin || fail "telemetry flags changed the image"
[ -s cve.stats.json ] || fail "empty pipeline stats"
"$TOOLS/rfrun" --runtime=redfat --policy=log --metrics=cve.metrics.json \
    --trace=cve.trace.json --report --pipeline-stats cve.stats.json \
    --sitemap cve.map cve.hard.rfbin "$ATTACK" > report.txt 2> /dev/null \
    || fail "telemetry run failed"
grep -q "per-site runtime telemetry" report.txt || fail "missing telemetry report"
grep -q "rz-hits" report.txt || fail "missing report columns"
grep -q "rewrite pipeline" report.txt || fail "report missing pipeline join"
grep -q "=== histograms ===" report.txt || fail "report missing histograms"
grep -q "p99" report.txt || fail "report missing percentile columns"
grep -q "vm.tramp_visit_cycles" report.txt || fail "report missing tramp-cycle histogram"
grep -q '"redzone_hits":[1-9]' cve.metrics.json || fail "metrics missing redzone hits"
grep -q '"traceEvents":' cve.trace.json || fail "trace missing traceEvents"
grep -q '"mem_error"' cve.trace.json || fail "trace missing mem_error instant"

# Shadow-impl variant.
"$TOOLS/redfat" --shadow cve.rfbin cve.sh.rfbin
if "$TOOLS/rfrun" --runtime=redfat-shadow cve.sh.rfbin "$ATTACK" > /dev/null 2>&1; then
  fail "shadow variant missed the attack"
fi

# Disassembler.
"$TOOLS/rfobjdump" --cfg mcf.hard.rfbin > dis.txt || fail "rfobjdump"
grep -q ".redfat.tramp" dis.txt || fail "no trampoline section in dump"
grep -q "jump target" dis.txt || fail "no cfg annotations"

# Profile-guided tiering: profile, merge two runs' metrics, re-rewrite.
"$TOOLS/rfrun" --runtime=redfat --metrics=tier_a.json mcf.hard.rfbin 50 0x3f \
    > /dev/null || fail "tier profiling run a"
"$TOOLS/rfrun" --runtime=redfat --metrics=tier_b.json mcf.hard.rfbin 30 0x3f \
    > /dev/null || fail "tier profiling run b"
"$TOOLS/redfat" --merge-metrics tier_merged.json tier_a.json tier_b.json \
    || fail "merge-metrics"
grep -q '"tramp_cycles":[1-9]' tier_merged.json || fail "merged profile empty"
"$TOOLS/redfat" --profile=tier_merged.json --sitemap tier.map \
    mcf.rfbin mcf.tiered.rfbin || fail "tiered rewrite"
grep -q " hot$" tier.map || fail "tiered sitemap has no hot site"
"$TOOLS/rfrun" --runtime=redfat mcf.tiered.rfbin 50 0x3f > tiered_out.txt \
    || fail "tiered run aborted on a clean program"
cmp base_out.txt tiered_out.txt || fail "tiered output differs from baseline"
"$TOOLS/rfobjdump" mcf.tiered.rfbin > tiered_dis.txt || fail "rfobjdump tiered"
grep -q ".redfat.inline" tiered_dis.txt || fail "no inline-check section in dump"

# A hostile profile (a negative count, 1 MB of '[') is a parse error with
# exit status 1 for both profile consumers, never a crash.
printf '{"counters":{"a":-1}}\n' > hostile_count.json
head -c 1048576 /dev/zero | tr '\0' '[' > hostile_nesting.json
for bad in hostile_count.json hostile_nesting.json; do
  for cmd in "--profile=$bad mcf.rfbin hostile.rfbin" "--merge-metrics hostile_out.json $bad"; do
    status=0
    # shellcheck disable=SC2086  # $cmd is a word list on purpose
    "$TOOLS/redfat" $cmd 2> hostile_err.txt || status=$?
    [ "$status" -eq 1 ] || fail "redfat $cmd exited $status"
    grep -q "metrics json" hostile_err.txt || fail "redfat $cmd printed no parse error"
  done
done
# So is a malformed allow-list or profile-dump line: exit status 1, an error
# naming the file and line, and no image written. Blank lines and comments
# in an allow-list are fine.
for bad in "allowlist:not-an-address" "allowlist:0xzz" "profile-data:garbage" \
    "profile-data:-1 5 0" "profile-data:12 5"; do
  FLAG=${bad%%:*}
  if [ "$FLAG" = allowlist ]; then
    printf '# sites\n\n0x1000\n%s\n' "${bad#*:}" > hostile.txt
    LINE=4
  else
    printf '0 1 0\n%s\n' "${bad#*:}" > hostile.txt
    LINE=2
  fi
  status=0
  "$TOOLS/redfat" --$FLAG hostile.txt mcf.rfbin hostile.rfbin 2> hostile_err.txt || status=$?
  [ "$status" -eq 1 ] || fail "redfat --$FLAG '${bad#*:}' exited $status"
  grep -q "hostile.txt:$LINE: malformed line" hostile_err.txt \
      || fail "redfat --$FLAG '${bad#*:}' did not name the line"
  [ ! -e hostile.rfbin ] || fail "redfat --$FLAG '${bad#*:}' wrote an image"
done

# Hardening tiers (policy layer). Every tier writes its sitemap header and
# reproduces the baseline output, with and without the sitemap; extensive
# is byte-identical to the default flags; contradictory flag combos are
# rejected.
"$TOOLS/redfat" mcf.rfbin mcf.def.rfbin
for TIER in none fast extensive debug; do
  "$TOOLS/redfat" --harden=$TIER --sitemap $TIER.map mcf.rfbin mcf.$TIER.rfbin
  grep -q "^# harden: $TIER$" $TIER.map || fail "$TIER sitemap missing policy header"
  "$TOOLS/rfrun" --harden=$TIER --sitemap $TIER.map mcf.$TIER.rfbin 50 0x3f \
      > ${TIER}_out.txt || fail "$TIER-tier run aborted on a clean program"
  cmp base_out.txt ${TIER}_out.txt || fail "$TIER-tier output differs from baseline"
done
cmp mcf.def.rfbin mcf.extensive.rfbin || fail "--harden=extensive not byte-identical"
"$TOOLS/rfrun" --harden=fast mcf.fast.rfbin 50 0x3f > fast_nomap_out.txt \
    || fail "fast-tier run without a sitemap aborted"
cmp base_out.txt fast_nomap_out.txt || fail "fast-tier output differs without a sitemap"
# The two observed runs (the debug tier's shadow checker and the Memcheck
# baseline) once per engine: the fast engine runs their plans with chaining
# and traces on and must match the stepper's stdout and metrics byte for
# byte; Memcheck reproduces the baseline output.
for ENG in step default; do
  FLAGS=
  [ $ENG = default ] || FLAGS=--engine=step
  # shellcheck disable=SC2086
  "$TOOLS/rfrun" $FLAGS --harden=debug --sitemap debug.map --metrics debug_$ENG.json \
      mcf.debug.rfbin 50 0x3f > debug_$ENG.out || fail "debug $ENG run"
  # shellcheck disable=SC2086
  "$TOOLS/rfrun" $FLAGS --runtime=memcheck --metrics memcheck_$ENG.json \
      mcf.rfbin 50 0x3f > memcheck_$ENG.out || fail "memcheck $ENG run"
done
for RUN in debug memcheck; do
  for EXT in out json; do
    cmp ${RUN}_step.$EXT ${RUN}_default.$EXT || fail "$RUN: step and default engine differ"
  done
done
cmp base_out.txt memcheck_default.out || fail "memcheck output differs from baseline"
"$TOOLS/redfat" --harden=fast --shadow mcf.rfbin /dev/null 2> /dev/null \
    && fail "fast+shadow conflict not rejected"
"$TOOLS/redfat" --harden=debug --no-lowfat mcf.rfbin /dev/null 2> /dev/null \
    && fail "debug+no-lowfat conflict not rejected"
"$TOOLS/rfrun" --harden=fast --runtime=redfat mcf.fast.rfbin 5 0x3f 2> /dev/null \
    && fail "rfrun --harden/--runtime conflict not rejected"

# An allow-list address is hex with or without the 0x prefix: both
# spellings of mcf's first site give the same image, with one full check.
SITE0=$(sed -n 's/^0 0x\([0-9a-f]*\) .*/\1/p' extensive.map)
[ -n "$SITE0" ] || fail "no first site in the sitemap"
printf '%s\n' "$SITE0" > allow_bare.txt
printf '0x%s\n' "$SITE0" > allow_0x.txt
for A in bare 0x; do
  "$TOOLS/redfat" --allowlist allow_$A.txt --sitemap allow_$A.map mcf.rfbin mcf.allow_$A.rfbin \
      2> allow_$A.err
  [ "$(grep -c ' full$' allow_$A.map)" = 1 ] || fail "allow-list ($A) did not give one full site"
done
cmp mcf.allow_bare.rfbin mcf.allow_0x.rfbin || fail "allow-list spellings differ"
# Entries that match no check site are counted on stderr; the image is what
# an allow-list with no entries gives. mcf's real allow-list (every site of
# its sitemap) prints nothing.
printf '0x1\n' > allow_stale.txt
printf '# nothing\n' > allow_none.txt
"$TOOLS/redfat" --allowlist allow_stale.txt mcf.rfbin mcf.allow_stale.rfbin 2> allow_stale.err \
    || fail "stale allow-list rewrite failed"
grep -qx "redfat: allow-list: 1 of 1 entries match no check site" allow_stale.err \
    || fail "stale allow-list entry not reported"
"$TOOLS/redfat" --allowlist allow_none.txt mcf.rfbin mcf.allow_none.rfbin
cmp mcf.allow_stale.rfbin mcf.allow_none.rfbin || fail "stale allow-list changed the image"
sed -n 's/^[0-9]* \(0x[0-9a-f]*\) .*/\1/p' extensive.map > allow_all.txt
"$TOOLS/redfat" --allowlist allow_all.txt mcf.rfbin mcf.allow_all.rfbin 2> allow_all.err
for A in bare 0x all; do
  ! grep -q "match no check site" allow_$A.err || fail "allow-list ($A) reported unmatched entries"
done
# A malformed number on rfrun's or rfgen's command line exits 2 and names
# the argument; a well-formed decimal input runs as its hex spelling does.
for bad in "rfrun mcf.rfbin 5x 0x3f:an input word" "rfrun --limit abc mcf.rfbin 5 0x3f:--limit" \
    "rfrun --sample-period=zz mcf.rfbin 5 0x3f:--sample-period" "rfgen server 7x bad.rfbin:SEED" \
    "redfat --jobs abc mcf.rfbin bad.rfbin:--jobs" "redfat --jobs=-1 mcf.rfbin bad.rfbin:--jobs" \
    "redfat --jobs=1x mcf.rfbin bad.rfbin:--jobs" "redfatd --socket=bad.sock --jobs=-1:--jobs"; do
  status=0
  # shellcheck disable=SC2086  # the command is a word list on purpose
  "$TOOLS/"${bad%%:*} > /dev/null 2> num_err.txt || status=$?
  [ "$status" -eq 2 ] || fail "${bad%%:*} exited $status"
  grep -q -e "${bad#*:} must be an unsigned integer" num_err.txt \
      || fail "${bad%%:*} did not name the argument"
done
[ ! -e bad.rfbin ] || fail "a malformed number still wrote an image"
[ ! -e bad.sock ] || fail "redfatd listened despite a malformed --jobs"
"$TOOLS/rfrun" mcf.rfbin 50 63 > dec_out.txt || fail "decimal-input run"
cmp base_out.txt dec_out.txt || fail "decimal and hex inputs differ"
# --hot-threshold takes a number in [0, 1] in both spellings; anything else,
# NaN included, exits 2 with the same message.
for bad in "--hot-threshold 2.5" "--hot-threshold abc" "--hot-threshold nan" \
    "--hot-threshold=2.5" "--hot-threshold=abc" "--hot-threshold=nan" "--hot-threshold=-0.1"; do
  status=0
  # shellcheck disable=SC2086
  "$TOOLS/redfat" $bad mcf.rfbin bad.rfbin 2> thr_err.txt || status=$?
  [ "$status" -eq 2 ] || fail "redfat $bad exited $status"
  grep -q -e "--hot-threshold must be a number in \[0, 1\]" thr_err.txt \
      || fail "redfat $bad did not name the argument"
  [ ! -e bad.rfbin ] || fail "redfat $bad wrote an image"
done
"$TOOLS/redfat" --hot-threshold 0.5 mcf.rfbin mcf.thr_space.rfbin || fail "--hot-threshold 0.5"
cmp mcf.def.rfbin mcf.thr_space.rfbin || fail "--hot-threshold 0.5 changed an untiered image"

# Batch mode rewrites whole images, up to --jobs at once, each exactly as a
# single-image rewrite would; an input's :0xADDR moves its trampolines.
cp mcf.rfbin mcfb.rfbin
PASS_COUNTS='"name":"[a-z]*","items":[0-9]*,"changed":[0-9]*'
for P in mcf cve; do
  "$TOOLS/redfat" --sitemap $P.one.map --stats $P.one.json $P.rfbin $P.one.rfbin
  grep -o "$PASS_COUNTS" $P.one.json > $P.one.json.ic || fail "no pass stats in $P.one.json"
done
for J in 1 3; do
  mkdir batch$J
  "$TOOLS/redfat" --jobs=$J --sitemap batch$J/s.map --stats batch$J/st.json \
      --output-dir batch$J mcf.rfbin cve.rfbin mcfb.rfbin:0x14400000 \
      || fail "batch rewrite at --jobs=$J"
  for P in mcf cve mcfb; do
    grep -o "$PASS_COUNTS" batch$J/st.$P.json > batch$J/st.$P.json.ic
  done
  for P in mcf cve; do
    cmp batch$J/$P.rfbin $P.one.rfbin || fail "batch --jobs=$J: $P image differs"
    cmp batch$J/s.$P.map $P.one.map || fail "batch --jobs=$J: $P sitemap differs"
    cmp batch$J/st.$P.json.ic $P.one.json.ic || fail "batch --jobs=$J: $P stats differ"
  done
  "$TOOLS/rfobjdump" --sections batch$J/mcfb.rfbin | grep -q "tramp @ 0x14400000" \
      || fail "batch --jobs=$J: :0x14400000 did not place the trampolines"
done
for F in mcfb.rfbin s.mcfb.map st.mcfb.json.ic; do
  cmp batch1/$F batch3/$F || fail "batch: $F differs between --jobs=1 and --jobs=3"
done
cmp batch1/st.mcfb.json.ic mcf.one.json.ic || fail "batch: a trampoline base changed the stats"
"$TOOLS/rfrun" --runtime=redfat batch3/mcfb.rfbin 50 0x3f > batch_out.txt \
    || fail "batch image at 0x14400000 aborted"
cmp base_out.txt batch_out.txt || fail "batch image at 0x14400000 differs from the baseline run"

# The fast tier drops sites that only rate a (Redzone)-only check: with a
# truncated allow-list profile, unobserved sites demote to redzone-only and
# fast leaves them bare.
head -20 prof.txt > prof_part.txt
"$TOOLS/redfat" --profile-data prof_part.txt --sitemap part.map \
    mcf.rfbin mcf.part.rfbin
"$TOOLS/redfat" --profile-data prof_part.txt --harden=fast --sitemap partf.map \
    mcf.rfbin mcf.partf.rfbin
grep -q "redzone" part.map || fail "partial allow-list produced no redzone sites"
grep -q "redzone" partf.map && fail "fast tier kept redzone-only sites"

# The debug tier still detects the CVE attack, and its resolved tier flows
# from the sitemap header into the runtime and the report's harden column.
"$TOOLS/redfat" --harden=debug --sitemap cve.dbg.map cve.rfbin cve.dbg.rfbin
grep -q "^# harden: debug$" cve.dbg.map || fail "debug sitemap missing header"
if "$TOOLS/rfrun" --harden=debug --sitemap cve.dbg.map cve.dbg.rfbin "$ATTACK" \
    > /dev/null 2> dbg_err.txt; then
  fail "debug tier missed the attack"
else
  [ $? -eq 134 ] || fail "unexpected debug-tier attack exit code"
fi
grep -q "out-of-bounds write at 0x" dbg_err.txt || fail "debug report unsymbolized"
"$TOOLS/rfrun" --harden=debug --sitemap cve.dbg.map cve.dbg.rfbin "$BENIGN" \
    > /dev/null || fail "debug tier rejected the benign input"
"$TOOLS/rfrun" --harden=debug --report --sitemap cve.dbg.map --policy=log \
    cve.dbg.rfbin "$ATTACK" > dbg_report.txt 2> /dev/null \
    || fail "debug-tier report run failed"
grep -q "harden" dbg_report.txt || fail "report missing harden column"
grep -q "debug" dbg_report.txt || fail "report harden column missing tier value"

# Forensics: the uaf workload's benign mode runs clean everywhere; the UAF
# mode under the debug tier yields a provenance-rich report and JSON.
"$TOOLS/rfgen" uaf 1 uaf.rfbin 2> /dev/null
"$TOOLS/rfrun" uaf.rfbin 0 > uaf_base.txt || fail "benign uaf-workload run"
"$TOOLS/redfat" --harden=debug --sitemap uaf.map uaf.rfbin uaf.dbg.rfbin
if "$TOOLS/rfrun" --harden=debug --sitemap uaf.map --error-report uaf_err.json \
    uaf.dbg.rfbin 1 > /dev/null 2> uaf_err.txt; then
  fail "uaf not detected under the debug tier"
else
  [ $? -eq 134 ] || fail "unexpected uaf exit code"
fi
grep -q "allocated at pc 0x" uaf_err.txt || fail "uaf report missing alloc provenance"
grep -q "freed at pc 0x" uaf_err.txt || fail "uaf report missing free provenance"
grep -q "tier: debug" uaf_err.txt || fail "uaf report missing tier"
grep -q "neighborhood of 0x" uaf_err.txt || fail "uaf report missing hex dump"
grep -q '"alloc_pc"' uaf_err.json || fail "error-report JSON missing alloc_pc"
grep -q '"free_pc"' uaf_err.json || fail "error-report JSON missing free_pc"
grep -q '"neighborhood"' uaf_err.json || fail "error-report JSON missing neighborhood"
grep -q '"tier":"debug"' uaf_err.json || fail "error-report JSON missing tier"
grep -q '"freed":true' uaf_err.json || fail "error-report JSON object not marked freed"
# Double free (mode 2) is diagnosed under --policy=log and the run finishes
# with the benign checksum.
"$TOOLS/rfrun" --harden=debug --sitemap uaf.map --policy=log \
    --error-report df_err.json uaf.dbg.rfbin 2 > df_out.txt 2> /dev/null \
    || fail "double-free log run failed"
cmp uaf_base.txt df_out.txt || fail "double-free log run changed the output"
grep -q '"kind":"double-free"' df_err.json || fail "double free not diagnosed"
# Memcheck reports the same guest double free (no ring attached) instead
# of aborting the host: exit 134 with the message under harden, the benign
# checksum under log.
if "$TOOLS/rfrun" --runtime=memcheck uaf.rfbin 2 > /dev/null 2> mc_df_err.txt; then
  fail "memcheck double free not detected"
else
  [ $? -eq 134 ] || fail "unexpected memcheck double-free exit code"
fi
grep -q "MEMORY ERROR: double free" mc_df_err.txt || fail "memcheck double free not reported"
"$TOOLS/rfrun" --runtime=memcheck --policy=log uaf.rfbin 2 > mc_df_out.txt 2> /dev/null \
    || fail "memcheck double-free log run failed"
cmp uaf_base.txt mc_df_out.txt || fail "memcheck double-free log run changed the output"
# So do the baseline and redfat-shadow runtimes, whose allocators used to
# abort the host on it.
for RT in baseline redfat-shadow; do
  if "$TOOLS/rfrun" --runtime=$RT uaf.rfbin 2 > /dev/null 2> df_$RT.txt; then
    fail "$RT double free not detected"
  else
    [ $? -eq 134 ] || fail "unexpected $RT double-free exit code"
  fi
  grep -q "MEMORY ERROR: double free" df_$RT.txt || fail "$RT double free not reported"
  "$TOOLS/rfrun" --runtime=$RT --policy=log uaf.rfbin 2 > df_$RT.out 2> /dev/null \
      || fail "$RT double-free log run failed"
  cmp uaf_base.txt df_$RT.out || fail "$RT double-free log run changed the output"
done

# Server-latency histograms: request lifetimes land in
# heap.alloc_lifetime_cycles with non-empty percentiles.
"$TOOLS/rfgen" server 1 srv.rfbin 2> /dev/null
"$TOOLS/rfrun" --report srv.rfbin 40 > srv_report.txt || fail "server report run"
grep -q "heap.alloc_lifetime_cycles" srv_report.txt \
    || fail "report missing server-latency histogram"
grep -q "heap.live_objects" srv_report.txt || fail "report missing queue-depth histogram"

# Sampling profiler: deterministic folded output, and attaching the sampler
# (or the forensic ring) changes neither guest cycles nor outputs.
"$TOOLS/rfrun" --runtime=redfat --metrics=obs_off.json mcf.hard.rfbin 50 0x3f \
    > obs_off_out.txt || fail "observability-off run"
"$TOOLS/rfrun" --runtime=redfat --metrics=obs_on.json --sample-period=97 \
    --profile-folded=mcf.folded --error-report obs_err.json \
    mcf.hard.rfbin 50 0x3f > obs_on_out.txt || fail "observability-on run"
cmp obs_off_out.txt obs_on_out.txt || fail "observability changed guest output"
CYC_OFF=$(sed -n 's/.*"vm.cycles":\([0-9]*\).*/\1/p' obs_off.json)
CYC_ON=$(sed -n 's/.*"vm.cycles":\([0-9]*\).*/\1/p' obs_on.json)
[ -n "$CYC_OFF" ] && [ "$CYC_OFF" = "$CYC_ON" ] \
    || fail "observability changed guest cycles ($CYC_OFF vs $CYC_ON)"
[ -s mcf.folded ] || fail "empty folded profile"
grep -q ";tramp;" mcf.folded || fail "folded profile missing trampoline frames"
"$TOOLS/rfrun" --runtime=redfat --sample-period=97 --profile-folded=mcf.folded2 \
    mcf.hard.rfbin 50 0x3f > /dev/null || fail "second sampling run"
cmp mcf.folded mcf.folded2 || fail "sampling is not deterministic"
# A clean run still writes the report, with an affirmative empty error list.
grep -q '"errors":\[\]' obs_err.json || fail "clean run error report not empty"
# The sampler's synthesized metrics feed the --profile= re-tiering join.
"$TOOLS/rfrun" --runtime=redfat --sample-period=97 --profile-metrics=mcf.pm.json \
    mcf.hard.rfbin 50 0x3f > /dev/null || fail "profile-metrics run"
grep -q '"profile.samples":[1-9]' mcf.pm.json || fail "profile metrics empty"
"$TOOLS/redfat" --profile=mcf.pm.json --sitemap sampled.map \
    mcf.rfbin mcf.sampled.rfbin || fail "sampled-profile rewrite"
grep -q " hot$" sampled.map || fail "sampled profile produced no hot site"

# Every sink writes the same bytes under every engine configuration: the
# default (links and traces run through trampolines), a 64-block code cache
# (mcf builds more blocks than that, so it flushes), no chaining, and the
# reference stepper.
for ENG in default cc64 nochain step; do
  case $ENG in
    default) FLAGS="" ;;
    cc64) FLAGS="--code-cache-size=64" ;;
    nochain) FLAGS="--no-chain" ;;
    step) FLAGS="--engine=step" ;;
  esac
  # shellcheck disable=SC2086
  "$TOOLS/rfrun" --runtime=redfat $FLAGS --metrics=eng_$ENG.json --metrics-epoch=20000 \
      --trace eng_$ENG.trace.json --sample-period=97 --profile-folded=eng_$ENG.folded \
      mcf.hard.rfbin 50 0x3f > eng_$ENG.out || fail "$ENG sink run"
done
[ -s eng_default.1.json ] || fail "sink run cut fewer than two epochs"
for ENG in cc64 nochain step; do
  for F in eng_default.out eng_default.json eng_default.trace.json eng_default.folded \
      eng_default.[0-9]*.json; do
    cmp "$F" "$(echo "$F" | sed "s/eng_default/eng_$ENG/")" \
        || fail "$ENG: $F differs from the default engine's"
  done
  [ "$(ls eng_$ENG.[0-9]*.json | wc -l)" = "$(ls eng_default.[0-9]*.json | wc -l)" ] \
      || fail "$ENG: epoch file count differs"
done
"$TOOLS/rfrun" --runtime=redfat --code-cache-size=64 --report mcf.hard.rfbin 50 0x3f \
    | grep -qE "code_cache_evictions +[1-9]" || fail "a 64-block cache did not flush"

# redfatd (killed by the exit trap): miss, hit, incremental re-tier and the
# no-daemon fallback each write the bytes of the offline rewrite with the
# same flags, and --print-cache-key agrees with the key the daemon served
# the request under.
"$TOOLS/rfrun" --runtime=redfat --metrics=dmn_prof.json mcf.def.rfbin 50 0x3f \
    > /dev/null || fail "daemon profiling run"
"$TOOLS/redfat" --profile=dmn_prof.json mcf.rfbin mcf.tier_offline.rfbin
"$TOOLS/redfatd" --socket=dmn.sock --jobs=2 2> daemon.log &
DAEMON=$!
for i in $(seq 100); do [ -S dmn.sock ] && break; sleep 0.1; done
[ -S dmn.sock ] || fail "redfatd did not listen"
for CELL in miss hit tier; do
  PROF=
  [ $CELL != tier ] || PROF=--profile=dmn_prof.json
  # shellcheck disable=SC2086
  "$TOOLS/redfat" --connect=dmn.sock -v $PROF mcf.rfbin mcf.dmn_$CELL.rfbin \
      2> dmn_$CELL.log || fail "daemon $CELL request"
done
cmp mcf.def.rfbin mcf.dmn_miss.rfbin || fail "daemon miss differs from offline"
cmp mcf.def.rfbin mcf.dmn_hit.rfbin || fail "daemon hit differs from offline"
cmp mcf.tier_offline.rfbin mcf.dmn_tier.rfbin || fail "daemon re-tier differs from offline"
grep -q "cache hit" dmn_hit.log || fail "second request was not a cache hit"
grep -q "incremental re-tier" dmn_tier.log || fail "profiled request was not re-tiered"
KEY=$("$TOOLS/redfat" --print-cache-key mcf.rfbin)
grep -q "key=$KEY" dmn_miss.log || fail "--print-cache-key differs from the served key"
"$TOOLS/redfat" --connect=no_such.sock -v mcf.rfbin mcf.dmn_fb.rfbin 2> dmn_fb.log \
    || fail "daemon fallback"
cmp mcf.def.rfbin mcf.dmn_fb.rfbin || fail "fallback differs from offline"
grep -q "rewriting in-process" dmn_fb.log || fail "fallback did not say so"

# rheap: a rewrite under an explicit --rheap list is byte-identical to the
# default rewrite (the features bind at run time), and features-off and
# all-features runs reproduce the baseline checksum.
"$TOOLS/rfgen" churn 1 churn.rfbin 2> /dev/null
"$TOOLS/redfat" churn.rfbin churn.def.rfbin
"$TOOLS/redfat" --rheap=prot-freelist,quarantine=64 --sitemap churn.map \
    churn.rfbin churn.rheap.rfbin
cmp churn.def.rfbin churn.rheap.rfbin || fail "--rheap changed the rewrite"
grep -q "^# rheap: prot-freelist,quarantine=64$" churn.map || fail "sitemap missing rheap header"
"$TOOLS/rfrun" churn.rfbin 2000 0 > churn_base.txt || fail "churn baseline run"
"$TOOLS/rfrun" --runtime=redfat churn.def.rfbin 2000 0 > churn_off.txt \
    || fail "churn features-off run"
"$TOOLS/rfrun" --runtime=redfat --rheap=prot-freelist,guard-memcpy,random,quarantine=64 \
    churn.def.rfbin 2000 0 > churn_all.txt || fail "churn all-features run"
cmp churn_base.txt churn_off.txt || fail "features-off run changed the output"
cmp churn_base.txt churn_all.txt || fail "all-features run changed the output"
"$TOOLS/rfrun" --rheap=prot-freelist churn.rfbin 10 0 2> /dev/null \
    && fail "--rheap on the baseline runtime not rejected"
# The forged-freelist-link attack (churn mode 1), uninstrumented under the
# hardened runtime: prot-freelist aborts it with a provenance-rich report,
# the sitemap header alone switches the feature on, and with features off
# the attack runs to the benign checksum.
if "$TOOLS/rfrun" --runtime=redfat --rheap=prot-freelist,quarantine=64 \
    --error-report forge_err.json churn.rfbin 2000 1 > /dev/null 2> forge_err.txt; then
  fail "forged link not detected"
else
  [ $? -eq 134 ] || fail "unexpected forged-link exit code"
fi
grep -q "freelist corruption" forge_err.txt || fail "forged-link report missing kind"
grep -q "freed at pc 0x" forge_err.txt || fail "forged-link report missing free provenance"
grep -q '"kind":"freelist-corruption"' forge_err.json || fail "forged-link JSON missing kind"
grep -q '"freed":true' forge_err.json || fail "forged-link JSON object not marked freed"
if "$TOOLS/rfrun" --runtime=redfat --sitemap churn.map churn.rfbin 2000 1 \
    > /dev/null 2>&1; then
  fail "sitemap rheap header did not enable prot-freelist"
else
  [ $? -eq 134 ] || fail "unexpected sitemap-enabled forged-link exit code"
fi
"$TOOLS/rfrun" --runtime=redfat churn.rfbin 2000 1 > churn_forge_off.txt \
    || fail "features-off forged-link run"
cmp churn_base.txt churn_forge_off.txt || fail "features-off forged-link run changed the output"

# The debug tier with every sink attached writes the same bytes under the
# default engine as under the stepper: stdout, stderr, exit status and every
# file, epoch files included, on the server and on churn (benign, and the
# forged link logged).
"$TOOLS/redfat" --harden=debug --sitemap srv.dbg.map srv.rfbin srv.dbg.rfbin
"$TOOLS/redfat" --harden=debug --sitemap churn.dbg.map churn.rfbin churn.dbg.rfbin
for RUN in "srv 300" "churn 400 0" "churn 400 1"; do
  # shellcheck disable=SC2086  # $RUN is a word list on purpose
  set -- $RUN
  PROG=$1
  shift
  TAG=dbg_$(echo "$RUN" | tr ' ' _)
  for ENG in step default; do
    FLAGS=
    [ $ENG = default ] || FLAGS=--engine=step
    mkdir $TAG.$ENG
    status=0
    # shellcheck disable=SC2086
    "$TOOLS/rfrun" $FLAGS --harden=debug --sitemap $PROG.dbg.map --policy=log --stats \
        --metrics $TAG.$ENG/m.json --metrics-epoch=20000 --trace $TAG.$ENG/t.json \
        --error-report $TAG.$ENG/e.json --sample-period=97 --profile-folded $TAG.$ENG/f.txt \
        $PROG.dbg.rfbin "$@" > $TAG.$ENG/out 2> $TAG.$ENG/err || status=$?
    echo $status > $TAG.$ENG/status
  done
  [ -s $TAG.default/m.1.json ] || fail "$TAG: sink run cut fewer than two epochs"
  diff -r $TAG.step $TAG.default > /dev/null || fail "$TAG: step and default engine differ"
done
grep -q '"kind":"freelist-corruption"' dbg_churn_400_1.default/e.json \
    || fail "debug-tier churn mode 1 not diagnosed"

echo "cli_roundtrip: OK"
