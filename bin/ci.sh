#!/bin/sh
# CI entry point: build + tests + a telemetry smoke run.
#
# Usage: bin/ci.sh
# Exits non-zero on the first failure.
set -eu

cd "$(dirname "$0")/.."

echo "== dune build @check (build + runtest) =="
dune build @check

# Every temporary file lives in one workspace, removed on any exit.
work="$(mktemp -d -t modchecker_ci.XXXXXX)"
trap 'rm -rf "$work"' EXIT

echo "== telemetry smoke run (4-VM cloud, trace + metrics) =="
trace="$work/trace.jsonl"

dune exec --no-build bin/modchecker_cli.exe -- \
  check --vms 4 --trace "$trace" --metrics > /dev/null

# The trace must be non-empty JSONL containing the per-phase spans and the
# meter-bridged counters the acceptance criteria name.
for needle in '"name":"searcher"' '"name":"parser"' '"name":"checker"' \
              'meter.searcher.bytes_copied' 'vmi.bytes_copied'; do
  grep -q "$needle" "$trace" || {
    echo "ci: telemetry smoke failed: $needle missing from $trace" >&2
    exit 1
  }
done
echo "telemetry smoke OK: $(wc -l < "$trace") trace lines"

echo "== incremental patrol smoke run (4-VM cloud, log-dirty + digest cache) =="
metrics="$work/incr.txt"

dune exec --no-build bin/modchecker_cli.exe -- \
  patrol --vms 4 --duration 100 --interval 30 --incremental --metrics \
  > "$metrics"

# Warm sweeps must hit the digest cache, and the dirty-page scan plus
# hypercall accounting must show up in the counters.
for needle in 'digest_cache.hits' 'digest_cache.misses' 'vmi.pages_dirty' \
              'meter.searcher.hypercalls'; do
  grep -q "$needle" "$metrics" || {
    echo "ci: incremental smoke failed: $needle missing from metrics" >&2
    exit 1
  }
done
echo "incremental smoke OK"

echo "== fault-injection smoke run (5% transient faults, retries absorb) =="
detect="$work/faults.txt"

# Under a 5% transient fault rate every scenario must still be detected
# exactly, and no survey may come back degraded: availability loss must
# never masquerade as (or hide) an infection.
dune exec --no-build bin/modchecker_cli.exe -- \
  detect --vms 6 --fault-spec transient=0.05,seed=7 > "$detect"

detected="$(grep -c 'yes' "$detect" || true)"
if [ "$detected" -lt 6 ]; then
  echo "ci: fault smoke failed: expected 6 detected scenarios, saw $detected" >&2
  cat "$detect" >&2
  exit 1
fi
if grep -q 'DEGRADED' "$detect"; then
  echo "ci: fault smoke failed: a scenario degraded under transient faults" >&2
  cat "$detect" >&2
  exit 1
fi
echo "fault detection smoke OK: $detected scenarios detected, none degraded"

# A pool that is mostly paged out must degrade (exit 3), not report a
# clean or infected/deviant verdict: zero Degraded-as-Infected confusions.
set +e
dune exec --no-build bin/modchecker_cli.exe -- \
  survey --vms 4 --fault-spec paged=0.7,seed=11 --quorum 0.8 > /dev/null 2>&1
status=$?
set -e
if [ "$status" -ne 3 ]; then
  echo "ci: fault smoke failed: quorum loss should exit 3, got $status" >&2
  exit 1
fi
echo "quorum degradation smoke OK: exit code 3"

echo "== engine serve smoke run (20-request batch, duplicate fan-in, faulted pool) =="
reqs="$work/reqs.txt"
serve_out="$work/serve.txt"

cat > "$reqs" <<'REQS'
# 20 requests: three modules asked repeatedly, plus checks and list walks
check 0 hal.dll high
check 1 hal.dll -
survey - hal.dll
survey - hal.dll
survey - hal.dll low
survey - http.sys
survey - http.sys
survey - http.sys
survey - ntoskrnl.exe
survey - ntoskrnl.exe
check 2 http.sys
check 3 http.sys
check 0 ntoskrnl.exe
check 1 ntoskrnl.exe low
survey - tcpip.sys
survey - tcpip.sys
lists - -
lists - -
check 2 tcpip.sys
check 3 tcpip.sys
REQS

# A clean (if faulted) pool must come back exit 0 — set -e enforces it.
dune exec --no-build bin/modchecker_cli.exe -- \
  serve --requests "$reqs" --vms 6 --fault-spec transient=0.05,seed=7 \
  --metrics > "$serve_out"

# Verdict parity: the engine routes to the same entry points, so every
# verdict on the clean pool must be intact, none degraded by the faults.
if grep -Eq 'SUSPICIOUS|DEGRADED|deviant: [0-9]' "$serve_out"; then
  echo "ci: serve smoke failed: non-intact verdict on a clean pool" >&2
  cat "$serve_out" >&2
  exit 1
fi
checks="$(grep -c 'INTACT' "$serve_out" || true)"
if [ "$checks" -lt 8 ]; then
  echo "ci: serve smoke failed: expected 8 intact checks, saw $checks" >&2
  exit 1
fi

# Duplicate fan-in must coalesce: the batch asks for hal.dll three times.
hits="$(sed -n 's/^| engine\.coalesce\.hits *| *\([0-9]*\).*/\1/p' "$serve_out")"
if [ -z "$hits" ] || [ "$hits" -eq 0 ]; then
  echo "ci: serve smoke failed: engine.coalesce.hits = ${hits:-missing}" >&2
  exit 1
fi
echo "serve smoke OK: 20 requests, $hits coalesced, exit 0"

# And an infected pool must exit 2 through serve exactly as the one-shot
# check subcommand does.
printf 'check 2 hal.dll high\nsurvey - hal.dll\n' > "$reqs"
set +e
dune exec --no-build bin/modchecker_cli.exe -- \
  serve --requests "$reqs" --vms 6 --infect hook --vm 2 > /dev/null 2>&1
serve_status=$?
dune exec --no-build bin/modchecker_cli.exe -- \
  check --vms 6 --infect hook --vm 2 > /dev/null 2>&1
check_status=$?
set -e
if [ "$serve_status" -ne 2 ] || [ "$check_status" -ne 2 ]; then
  echo "ci: serve smoke failed: infected exits serve=$serve_status check=$check_status (want 2)" >&2
  exit 1
fi
echo "serve exit-code parity OK: infected pool exits 2 both ways"

echo "== simulation smoke (25 campaigns x 40 steps, oracle-validated, deterministic) =="
sim1="$work/sim1.txt"
sim2="$work/sim2.txt"
simfail="$work/simfail.txt"

# Two identical invocations must produce byte-identical transcripts and
# exit 0: every verdict, alarm, and metered cost matched the oracle.
dune exec --no-build bin/modchecker_cli.exe -- \
  simtest --seed 42 --steps 40 --campaign 25 --transcript "$sim1" > /dev/null
dune exec --no-build bin/modchecker_cli.exe -- \
  simtest --seed 42 --steps 40 --campaign 25 --transcript "$sim2" > /dev/null
cmp "$sim1" "$sim2" || {
  echo "ci: simulation smoke failed: transcripts differ between identical runs" >&2
  exit 1
}

# A restore carries cached prints and list walks into the new epoch by
# their page stamps. The oracle must have judged that path: some campaign
# revalidated an entry, and only campaigns with a restore did (a reboot
# writes fresh stamps, so nothing else can).
revalidated=$(awk '/^ledger:/ {
    for (i = 1; i <= NF; i++) {
      split($i, kv, "=")
      if (kv[1] == "restores") r = kv[2]
      if (kv[1] == "revalidated") v = kv[2]
    }
    if (v + 0 > 0 && r + 0 == 0) bad = 1
    total += v
  } END { print (bad ? "bad" : total + 0) }' "$sim1")
if [ "$revalidated" = "bad" ] || [ "$revalidated" -lt 1 ]; then
  echo "ci: simulation smoke failed: revalidated across restores = $revalidated (want >= 1, and none without a restore)" >&2
  exit 1
fi

# The oracle must have teeth: a checker with one flipped cached digest
# byte fails the campaign and the failure shrinks to a replayable script.
set +e
dune exec --no-build bin/modchecker_cli.exe -- \
  simtest --seed 42 --steps 40 --campaign 5 --break-checker > "$simfail" 2>&1
sim_status=$?
set -e
if [ "$sim_status" -ne 1 ]; then
  echo "ci: simulation smoke failed: broken checker exited $sim_status (want 1)" >&2
  cat "$simfail" >&2
  exit 1
fi
grep -q 'simtest-scenario v1' "$simfail" || {
  echo "ci: simulation smoke failed: no shrunk replayable scenario in output" >&2
  cat "$simfail" >&2
  exit 1
}
echo "simulation smoke OK: deterministic transcripts, $revalidated entries revalidated across restores, broken checker caught and shrunk"

echo "== federation smoke (3-host x 5-VM fleet: infection + whole-host outage) =="
fed="$work/fed.txt"

# One infected VM on host 0, host 2 down: the fleet must still see the
# infection but report DEGRADED (exit 3) — an answer you cannot trust
# outranks a bad answer you can.
set +e
dune exec --no-build bin/modchecker_cli.exe -- \
  federate --hosts-per-rack 3 --vms 5 --infect hook --host 0 --vm 1 \
  --down 2 > "$fed" 2>&1
fed_status=$?
set -e
if [ "$fed_status" -ne 3 ]; then
  echo "ci: federation smoke failed: expected exit 3 (degraded), got $fed_status" >&2
  cat "$fed" >&2
  exit 1
fi
grep -q 'Dom2' "$fed" || {
  echo "ci: federation smoke failed: the infected VM is not reported" >&2
  cat "$fed" >&2
  exit 1
}
grep -q 'FLEET DEGRADED' "$fed" || {
  echo "ci: federation smoke failed: no FLEET DEGRADED summary" >&2
  cat "$fed" >&2
  exit 1
}

# With every host up, the fleet's exit code must match the one-shot
# check subcommand's on the same infection: exit 2, both ways.
set +e
dune exec --no-build bin/modchecker_cli.exe -- \
  federate --hosts-per-rack 3 --vms 5 --infect hook --host 0 --vm 1 \
  > /dev/null 2>&1
fed_status=$?
dune exec --no-build bin/modchecker_cli.exe -- \
  check --vms 5 --infect hook --vm 1 > /dev/null 2>&1
check_status=$?
set -e
if [ "$fed_status" -ne 2 ] || [ "$check_status" -ne 2 ]; then
  echo "ci: federation smoke failed: infected exits federate=$fed_status check=$check_status (want 2)" >&2
  exit 1
fi

# A 30-host fleet must run on the coordinator's direct calls alone: exit
# 2, with host7's hooked Dom2 named in its row of the vote table.
set +e
dune exec --no-build bin/modchecker_cli.exe -- \
  federate --hosts-per-rack 30 --vms 3 --infect hook --host 7 --vm 1 \
  > "$fed" 2>&1
fed_status=$?
set -e
if [ "$fed_status" -ne 2 ]; then
  echo "ci: federation smoke failed: 30-host fleet exited $fed_status (want 2)" >&2
  cat "$fed" >&2
  exit 1
fi
grep -Eq '^\| host7 +\|.*\| INFECTED +\| Dom2 +\|' "$fed" || {
  echo "ci: federation smoke failed: 30-host fleet does not name host7/Dom2" >&2
  cat "$fed" >&2
  exit 1
}

# Options deleted from federate must be usage errors (124), not runs:
# each host has one executor, the direct orchestrator call, and the
# coordinator surveys the hosts one after another on one domain.
for removed in "--engines" "-j 2" "--workers 2"; do
  set +e
  dune exec --no-build bin/modchecker_cli.exe -- \
    federate $removed > /dev/null 2>&1
  fed_status=$?
  set -e
  if [ "$fed_status" -ne 124 ]; then
    echo "ci: federation smoke failed: federate $removed exited $fed_status (want 124)" >&2
    exit 1
  fi
done
echo "federation smoke OK: infection seen, outage degrades, exit-code parity, 30 hosts, removed options rejected"

# The survey has one vote path (prints, escalated to Algorithm 2), so the
# deleted --canonical flag is a usage error (124) on health and patrol;
# the engine's shards are its only worker domains, so serve's deleted
# --workers is one too; a per-VM task runs to completion under
# deterministic bounds, so check's deleted --deadline is one as well; a
# check runs on one domain, so its deleted -j/--workers are too.
for args in "health --canonical" "patrol --canonical" \
    "serve --workers 2 --requests /dev/null" "check --deadline 1" \
    "check -j 4" "check --workers 4"; do
  set +e
  dune exec --no-build bin/modchecker_cli.exe -- $args > /dev/null 2>&1
  status=$?
  set -e
  if [ "$status" -ne 124 ]; then
    echo "ci: usage-error smoke failed: $args exited $status (want 124)" >&2
    exit 1
  fi
done
echo "removed-flag smoke OK: health --canonical, patrol --canonical, serve --workers, check --deadline and check -j/--workers exit 124"

echo "== merkle smoke (O(dirty) section hashing: verdict parity + speedup) =="
# Every detection scenario must produce the same exit code and the same
# alarm log (kind, module and VMs per alarm; alarm times masked) from an
# incremental (Merkle-print) patrol as from a full-hashing one — trees
# change the price, never the verdict. `race` puts one identical
# infection on a majority of the VMs, so the incremental patrol's
# escalation has several print classes to compare.
alarms() {
  sed -n '/^alarm log:/,$ s/^ *\[t= *[0-9.]*s\] *//p' "$1"
}
for technique in opcode hook stub dll-inject ptr hide race -; do
  case "$technique" in
    -) infect_args="" ;;
    race) infect_args="--adversary race --infect-at 40" ;;
    *) infect_args="--infect $technique --vm 1 --infect-at 40" ;;
  esac
  set +e
  dune exec --no-build bin/modchecker_cli.exe -- \
    patrol --vms 5 --duration 100 --interval 30 $infect_args --incremental \
    > "$work/patrol_incr.txt" 2>/dev/null
  incremental_status=$?
  dune exec --no-build bin/modchecker_cli.exe -- \
    patrol --vms 5 --duration 100 --interval 30 $infect_args \
    > "$work/patrol_plain.txt" 2>/dev/null
  plain_status=$?
  set -e
  if [ "$incremental_status" -ne "$plain_status" ]; then
    echo "ci: merkle smoke failed: $technique exits incremental=$incremental_status plain=$plain_status" >&2
    exit 1
  fi
  if [ "$(alarms "$work/patrol_incr.txt")" != "$(alarms "$work/patrol_plain.txt")" ]; then
    echo "ci: merkle smoke failed: $technique alarm logs differ (incremental, then plain)" >&2
    alarms "$work/patrol_incr.txt" >&2
    alarms "$work/patrol_plain.txt" >&2
    exit 1
  fi
done
echo "merkle verdict parity OK: 7 techniques + clean, identical patrol exit codes and alarm logs"

# The O(dirty) refresh must actually be cheap: at one dirty page per VM
# the metered sweep must cost at least 5x less than the sweep that built
# the prints.
merkle_fig="$work/merkle.txt"
dune exec --no-build bin/modchecker_cli.exe -- \
  figures --which merkle > "$merkle_fig"
speedup="$(awk -F'|' '$2 ~ /^ *1 *$/ { gsub(/[x ]/, "", $7); print $7 }' "$merkle_fig")"
if [ -z "$speedup" ] || ! awk -v s="$speedup" 'BEGIN { exit !(s >= 5.0) }'; then
  echo "ci: merkle smoke failed: 1-dirty-page speedup ${speedup:-missing} (want >= 5x)" >&2
  cat "$merkle_fig" >&2
  exit 1
fi
echo "merkle O(dirty) smoke OK: 1-dirty-page sweep ${speedup}x cheaper than building the prints"

echo "== event-driven patrol smoke (write traps: instant detection, idle pool free) =="
ev="$work/events.txt"

# A hook at t=65 must be caught by the trap reaction (exit 2), with a
# detection latency at least 10x below the 30 s poll interval.
set +e
dune exec --no-build bin/modchecker_cli.exe -- \
  patrol --event-driven --vms 4 --duration 240 --interval 30 \
  --infect hook --vm 1 --infect-at 65 > "$ev" 2> "$ev.err"
ev_status=$?
set -e
if [ "$ev_status" -ne 2 ]; then
  echo "ci: event-driven smoke failed: infected patrol exited $ev_status (want 2)" >&2
  cat "$ev" "$ev.err" >&2
  exit 1
fi
# The stdout is pinned byte for byte: its "Dom0 CPU" figure prices every
# write-trap arm and unarm hypercall, so re-arming a different set of
# frames (not only a different alarm) changes the digest.
ev_pinned_md5=6f8e378e0540d81fc2e93978c80ef1d7
ev_md5="$(md5sum < "$ev" | cut -d' ' -f1)"
if [ "$ev_md5" != "$ev_pinned_md5" ]; then
  echo "ci: event-driven smoke failed: stdout md5 $ev_md5 (want $ev_pinned_md5)" >&2
  cat "$ev" >&2
  exit 1
fi
rm -f "$ev.err"
latency="$(sed -n 's/^detection latency: median \([0-9.]*\)s.*/\1/p' "$ev")"
if [ -z "$latency" ] || ! awk -v l="$latency" 'BEGIN { exit !(l < 3.0) }'; then
  echo "ci: event-driven smoke failed: detection latency ${latency:-missing}s (want < 3s)" >&2
  cat "$ev" >&2
  exit 1
fi
grep -q 'hash deviation' "$ev" || {
  echo "ci: event-driven smoke failed: no hash-deviation alarm in output" >&2
  cat "$ev" >&2
  exit 1
}

# A clean pool must exit 0 with zero trap reactions — set -e enforces
# the exit code.
dune exec --no-build bin/modchecker_cli.exe -- \
  patrol --event-driven --vms 4 --duration 240 --interval 30 > "$ev"
grep -q ' 0 reactions' "$ev" || {
  echo "ci: event-driven smoke failed: clean patrol reported trap reactions" >&2
  cat "$ev" >&2
  exit 1
}
echo "event-driven smoke OK: hook caught in ${latency}s, clean run idle"

echo "== serving & attestation smoke (200-request stream, hash-chained ledger) =="
ledger="$work/ledger.jsonl"
stream_out="$work/stream.jsonl"

# A clean 8-VM pool must stream all 200 mixed-priority requests to exit 0
# (set -e enforces it), answering every frame on the wire.
dune exec --no-build bin/modchecker_cli.exe -- \
  serve --stream --requests bin/serve_smoke.requests --vms 8 \
  --ledger "$ledger" > "$stream_out"
responses="$(grep -c '"type":"response"' "$stream_out" || true)"
if [ "$responses" -ne 200 ]; then
  echo "ci: serve stream smoke failed: $responses wire responses (want 200)" >&2
  exit 1
fi

# The stream's bytes are pinned: with one shard and a window of 1 the
# replies are deterministic once each response's trailing wall-clock
# wait_s/service_s fields are cut back to its closing brace (the bytes
# the ledger attests). The body_md5 check below cannot catch an encoder
# bug (the stream and the ledger get their bytes from the same encoder);
# this digest, whose report@2 bodies decode and re-encode to the
# previous schema's pinned stream, does.
cut_timing() {
  sed -E 's/,"wait_s":[^,]*,"service_s":[^,]*}$/}/'
}
pinned_md5=fd6ff0ca4c385fcf5829d58426677ba5
stream_md5="$(dune exec --no-build bin/modchecker_cli.exe -- \
  serve --stream --shards 1 --window 1 --vms 8 \
  --requests bin/serve_smoke.requests 2>/dev/null \
  | cut_timing | md5sum | cut -d' ' -f1)"
if [ "$stream_md5" != "$pinned_md5" ]; then
  echo "ci: serve stream smoke failed: timing-cut stream md5 $stream_md5 (want $pinned_md5)" >&2
  exit 1
fi

# Two such sessions attest the same bytes, so their ledgers (and the
# heads they report) are byte-identical.
for run in 1 2; do
  dune exec --no-build bin/modchecker_cli.exe -- \
    serve --stream --shards 1 --window 1 --vms 8 \
    --requests bin/serve_smoke.requests --ledger "$work/repro$run.jsonl" \
    2> "$work/repro$run.err" > /dev/null
  dune exec --no-build bin/modchecker_cli.exe -- \
    ledger verify "$work/repro$run.jsonl" > /dev/null
  sed -n 's/^# ledger: .*, head \([0-9a-f]*\)$/\1/p' "$work/repro$run.err" \
    > "$work/repro$run.head"
done
if [ ! -s "$work/repro1.head" ] || ! cmp -s "$work/repro1.head" "$work/repro2.head" \
   || ! cmp -s "$work/repro1.jsonl" "$work/repro2.jsonl"; then
  echo "ci: ledger smoke failed: two single-shard sessions wrote different ledgers" >&2
  cat "$work/repro1.head" "$work/repro2.head" >&2
  exit 1
fi

# The attestation chain must verify offline...
dune exec --no-build bin/modchecker_cli.exe -- \
  ledger verify "$ledger" > /dev/null

# ...each entry must attest the exact bytes streamed for its response
# (entry i's body_md5 is the MD5 of the i-th response line with its
# trailing timing fields cut back to })...
grep -o '"body_md5":"[0-9a-f]*"' "$ledger" | cut -d'"' -f4 > "$ledger.md5"
grep '"type":"response"' "$stream_out" | cut_timing | while IFS= read -r line; do
  printf '%s' "$line" | md5sum | cut -d' ' -f1
done > "$stream_out.md5"
if [ "$(wc -l < "$ledger.md5")" -ne 200 ] || ! cmp -s "$ledger.md5" "$stream_out.md5"; then
  echo "ci: ledger smoke failed: body_md5 does not match the streamed responses" >&2
  diff "$ledger.md5" "$stream_out.md5" | head -5 >&2
  rm -f "$ledger.md5" "$stream_out.md5"
  exit 1
fi
rm -f "$ledger.md5" "$stream_out.md5"

# ...every chain link must check out under an independent MD5: entry i's
# hash is md5sum(prev ^ payload), where prev starts as the md5sum of the
# schema tag and the payload is the line with its trailing
# ,"hash":"<hex>"} cut back to }...
hash_key=',"hash":"'
prev="$(printf '%s' 'modchecker/ledger@1' | md5sum | cut -d' ' -f1)"
links=0
while IFS= read -r line; do
  hash="${line##*"$hash_key"}"
  hash="${hash%'"}'}"
  payload="${line%"$hash_key"*}}"
  want="$(printf '%s%s' "$prev" "$payload" | md5sum | cut -d' ' -f1)"
  if [ "$want" != "$hash" ]; then
    echo "ci: ledger smoke failed: entry $links hash $hash, md5sum says $want" >&2
    exit 1
  fi
  prev="$hash"
  links=$((links + 1))
done < "$ledger"
if [ "$links" -ne 200 ]; then
  echo "ci: ledger smoke failed: $links chain links checked (want 200)" >&2
  exit 1
fi

# ...and one flipped byte must break it with a non-zero exit.
printf '!' | dd of="$ledger" bs=1 seek=120 conv=notrunc 2>/dev/null
set +e
dune exec --no-build bin/modchecker_cli.exe -- \
  ledger verify "$ledger" > /dev/null 2>&1
ledger_status=$?
set -e
if [ "$ledger_status" -eq 0 ]; then
  echo "ci: ledger smoke failed: a corrupted chain verified" >&2
  exit 1
fi
echo "serving & attestation smoke OK: 200 responses, timing-cut stream bytes pinned, two ledgers identical, chain verified, bodies attested, links re-hashed by md5sum, corruption caught"

echo "== evasion smoke (TOCTOU adversary vs patrol cadence, tamper vs anchors) =="
evade_out="$work/evade.txt"

# A slow 30 s poll must lose the TOCTOU race: a restorer that dwells 25 s
# out of every 60 s, phased between sweeps, is never caught (exit 0) and
# the report says so in as many words.
set +e
dune exec --no-build bin/modchecker_cli.exe -- \
  patrol --adversary toctou --vms 4 --vm 1 --infect-at 1 --dwell 25 \
  --period 60 --duration 240 --interval 30 > "$evade_out" 2>&1
evade_status=$?
set -e
if [ "$evade_status" -ne 0 ]; then
  echo "ci: evasion smoke failed: phased TOCTOU run exited $evade_status (want 0, evaded)" >&2
  cat "$evade_out" >&2
  exit 1
fi
grep -q 'EVADED' "$evade_out" || {
  echo "ci: evasion smoke failed: phased TOCTOU run did not report EVADED" >&2
  cat "$evade_out" >&2
  exit 1
}

# The same adversary against write traps has no window at all: the first
# dirty byte fires a reaction (exit 2, hash deviation).
set +e
dune exec --no-build bin/modchecker_cli.exe -- \
  patrol --adversary toctou --vms 4 --vm 1 --infect-at 65 --dwell 5 \
  --period 60 --duration 240 --event-driven > "$evade_out" 2>&1
evade_status=$?
set -e
if [ "$evade_status" -ne 2 ]; then
  echo "ci: evasion smoke failed: event-driven TOCTOU run exited $evade_status (want 2)" >&2
  cat "$evade_out" >&2
  exit 1
fi
grep -q 'hash deviation' "$evade_out" || {
  echo "ci: evasion smoke failed: no hash-deviation alarm against write traps" >&2
  cat "$evade_out" >&2
  exit 1
}

# A checker-tamperer that shims the foreign-read channel fools every
# survey, but the raw-physical anchor audit contradicts the cache.
set +e
dune exec --no-build bin/modchecker_cli.exe -- \
  patrol --adversary tamper --vms 4 --vm 1 --infect-at 65 --duration 240 \
  --interval 30 --incremental > "$evade_out" 2>&1
evade_status=$?
set -e
if [ "$evade_status" -ne 2 ]; then
  echo "ci: evasion smoke failed: tamper run exited $evade_status (want 2)" >&2
  cat "$evade_out" >&2
  exit 1
fi
grep -q 'anchor mismatch' "$evade_out" || {
  echo "ci: evasion smoke failed: no anchor-mismatch alarm against the shim" >&2
  cat "$evade_out" >&2
  exit 1
}
echo "evasion smoke OK: poll-30 evaded, write traps caught, anchor audit beat the shim"

echo "== patrol exit-code smoke (availability-only runs, non-positive interval) =="
# A patrol whose only alarms are quorum losses is degraded (exit 3), not
# infected: most of the pool is paged out and no integrity alarm fires.
set +e
dune exec --no-build bin/modchecker_cli.exe -- \
  patrol --vms 4 --duration 60 --interval 10 \
  --fault-spec paged=0.6,seed=3 --quorum 0.9 > "$evade_out" 2>&1
status=$?
set -e
if [ "$status" -ne 3 ]; then
  echo "ci: exit-code smoke failed: quorum-loss-only patrol exited $status (want 3)" >&2
  cat "$evade_out" >&2
  exit 1
fi

# The pager wins against a full quorum by making its victim unreachable:
# EVADED, and the run is degraded rather than infected.
set +e
dune exec --no-build bin/modchecker_cli.exe -- \
  patrol --vms 4 --adversary pager --quorum 1.0 --duration 120 > "$evade_out" 2>&1
status=$?
set -e
if [ "$status" -ne 3 ]; then
  echo "ci: exit-code smoke failed: pager adversary exited $status (want 3)" >&2
  cat "$evade_out" >&2
  exit 1
fi
grep -q 'EVADED' "$evade_out" || {
  echo "ci: exit-code smoke failed: pager adversary did not report EVADED" >&2
  cat "$evade_out" >&2
  exit 1
}

# A zero interval is a usage error: no verdict code and no uncaught
# exception (125).
set +e
dune exec --no-build bin/modchecker_cli.exe -- \
  patrol --vms 2 --duration 10 --interval 0 > /dev/null 2>&1
status=$?
set -e
case "$status" in
  0|2|3|125)
    echo "ci: exit-code smoke failed: patrol --interval 0 exited $status" >&2
    exit 1 ;;
esac
echo "patrol exit-code smoke OK: quorum loss exits 3, pager EVADED + 3, --interval 0 rejected ($status)"

echo "== usage-error smoke (removed subcommand, out-of-range target VM) =="
# A removed subcommand (evade; its adversaries run under patrol), a
# --vm outside the pool and a zero engine count (shards, queue bound,
# stream window) are usage errors: exit 124, never a run or an uncaught
# exception (125).
for args in "evade --strategy toctou --vms 4" "check --vms 3 --vm 5" \
    "serve --shards 0 --requests bin/serve_smoke.requests" \
    "serve --queue-bound 0 --requests bin/serve_smoke.requests" \
    "serve --stream --window 0 --requests bin/serve_smoke.requests"; do
  set +e
  dune exec --no-build bin/modchecker_cli.exe -- $args > /dev/null 2>&1
  status=$?
  set -e
  if [ "$status" -ne 124 ]; then
    echo "ci: usage-error smoke failed: '$args' exited $status (want 124)" >&2
    exit 1
  fi
done
echo "usage-error smoke OK: evade, check --vms 3 --vm 5 and serve --shards/--queue-bound/--window 0 exit 124"

echo "== cold-check smoke (hooked hal.dll) =="
cold="$work/cold.json"

# A check shares one digest memo between its pairs. Reuse must be
# invisible: the hooked run exits 2 with an infected verdict.
set +e
dune exec --no-build bin/modchecker_cli.exe -- \
  check -m hal.dll --infect hook --json > "$cold" 2>/dev/null
status=$?
set -e
if [ "$status" -ne 2 ]; then
  echo "ci: cold-check smoke failed: exited $status (want 2)" >&2
  exit 1
fi
grep -q '"verdict": "infected"' "$cold" || {
  echo "ci: cold-check smoke failed: report is not infected" >&2
  cat "$cold" >&2
  exit 1
}
echo "cold-check smoke OK: infected, exit 2"

echo "== cold-check output pins (15 VMs: clean, hooked and dll-inject checks, survey) =="
# Clean pairs are decided from reloc-canonical copies and every other
# pair by Algorithm 2's scan; either way the reports must stay byte for
# byte what the scan alone printed. The three check pins are report@2
# documents, which decode and re-encode to the report@1 bytes that the
# scan alone printed. Only stdout is compared (the hooked check exits 2;
# the pipeline's status is md5sum's).
pin() {
  want="$1"
  shift
  got="$(dune exec --no-build bin/modchecker_cli.exe -- "$@" 2>/dev/null \
    | md5sum | cut -d' ' -f1)"
  if [ "$got" != "$want" ]; then
    echo "ci: cold-check pin failed: '$*' stdout md5 $got (want $want)" >&2
    exit 1
  fi
}
pin b464600e344b7eb319d04b6414630eb7 check --vms 15 --json
pin 375629a89098f418a45794c87a71f030 check --vms 15 --vm 3 --infect hook --json
pin a6b138d72dab9550ef60763b4d39ef41 survey --vms 15 --module ntoskrnl.exe --json
# A DLL injection resizes dummy.sys's sections on one VM: its pairs hash a
# resized section against fitted ones, where a side that holds a fitted
# section canonical must hand its raw bytes back.
pin 95af651b8ec1c2ae44f3e4e438d9a644 check --vms 15 --vm 4 --infect dll-inject \
  --module dummy.sys --json
echo "cold-check pins OK: four 15-VM reports match their pins"

echo "== print-path output pins (X1 exact column, federation ballots) =="
# The X1 ablation's exact column and the federation's cross-host ballots
# strip load bases with the golden slot tables (Checker.own);
# both outputs must stay byte for byte what folding the whole golden reloc
# list over each section printed. The infected fleet exits 2.
pin 71cbc829fcb0eaa089d568acca138663 figures --which ablation
pin facd585a67870b47d4e5b2121967e8df federate --patch-levels 1,2 \
  --infect hook --host 0 --vm 1 --json
echo "print-path pins OK: ablation table and 2-level federation report byte-identical"

echo "== perfbench smoke (three workloads, 2 s each: correctness gated, speed reported) =="
bench_out="$work/bench.txt"

# The newest committed BENCH_<n>.json is the reference for the drift
# warning; wall-clock speed depends on the host, so it never fails CI.
bench_ref="$(ls BENCH_*.json 2>/dev/null | sort -t_ -k2 -n | tail -n 1)"

# metric NAME LINE: the value of one metric in a perfbench result line.
metric() {
  printf '%s\n' "$2" | sed -n "s/.*\"$1\": {\"value\": \([-0-9.e+]*\).*/\1/p"
}

for workload in stream-warm check-cold patrol-churn; do
  bash perfbench/run.sh --workload "$workload" --seed 1 --seconds 2 \
    --trace 0 > "$bench_out" 2>/dev/null || {
    echo "ci: perfbench smoke failed: $workload run exited non-zero" >&2
    cat "$bench_out" >&2
    exit 1
  }
  result="$(tail -n 1 "$bench_out")"
  failed="$(printf '%s\n' "$result" | sed -n 's/.*"failed": \([0-9]*\).*/\1/p')"
  if ! printf '%s\n' "$result" | grep -q '"correct": true' \
     || [ -z "$failed" ] || [ "$failed" -ne 0 ]; then
    echo "ci: perfbench smoke failed: $workload answered wrongly or failed ops" >&2
    printf '%s\n' "$result" >&2
    exit 1
  fi
  rps="$(metric throughput_rps "$result")"
  echo "$workload: $rps req/s, p50 $(metric latency_p50_ms "$result") ms," \
    "CPU/op $(metric cpu_ms_per_op "$result") ms," \
    "RSS $(metric max_rss_mb "$result") MB, setup $(metric setup_s "$result") s"
  if [ -n "$bench_ref" ]; then
    ref_line="$(sed -n '/"change"/,$p' "$bench_ref" | grep "\"$workload\":" || true)"
    ref_rps="$(metric throughput_rps "$ref_line")"
    if [ -n "$ref_rps" ] && awk -v r="$rps" -v f="$ref_rps" \
         'BEGIN { exit !(r < f / 2 || r > f * 2) }'; then
      echo "ci: warning: $workload throughput $rps req/s drifted more than 2x" \
        "from $ref_rps in $bench_ref (host-dependent; not a failure)" >&2
    fi
  fi
done
echo "perfbench smoke OK: three workloads correct, 0 failed operations"
