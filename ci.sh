#!/usr/bin/env sh
# Local CI gate: formatting, lints, and the tier-1 suite.
set -eu

echo '== cargo fmt --check'
cargo fmt --all -- --check

echo '== cargo clippy (deny warnings)'
cargo clippy --workspace --all-targets -- -D warnings

echo '== tier-1: build + test (every crate of the workspace)'
cargo build --release
cargo test --workspace -q

echo '== oracle at workload scale: every build pipeline equals Skyey'
# Stellar at 1 and 2 threads, the engine and its binary round trip, each
# compared with Skyey's definition-level groups on anti-correlated and
# independent 100k × 5 and correlated 20k × 10 data.
cargo test --release --test oracle_scale -- --ignored
# The stress suite: Stellar equals Skyey on dense-tie, generated and
# NBA-like data; a 300-step insert/delete stream equals a recompute; LESS
# equals the naive skyline at 30k × 5.
cargo test --release --test stress -- --ignored

echo '== bench harness bins (figure and ablation rot gate)'
cargo build --release -p skycube-bench --bins

echo '== perfbench: every workload at smoke size, twice, every reply checked'
# The benchmark is its own Cargo workspace built against these crates by
# path, so a library change that breaks its build or its reply checks
# fails here before it fails the benchmark run.
cargo test --release --offline --manifest-path perfbench/Cargo.toml

echo '== query-layer smoke: every --source answers a 2-line workload'
SMOKE_DIR=$(mktemp -d)
trap 'rm -rf "$SMOKE_DIR"' EXIT

# wait_ready ERR_FILE SOCKET: wait up to 10 s for the daemon's
# "# ready: listening on SOCKET" stderr line. `skycube serve` prints it
# only after bind has returned; the socket file itself appears at bind(2),
# before listen(2), and a connect in between is refused.
wait_ready() {
    for _ in $(seq 100); do
        if grep -qF "# ready: listening on $2 " "$1"; then return 0; fi
        sleep 0.1
    done
    return 1
}
./target/release/skycube generate --dist independent --count 300 --dims 4 \
    --seed 5 --out "$SMOKE_DIR/data.csv"
printf 'skyline ABD\ntop 3\n' > "$SMOKE_DIR/workload.txt"
for src in stellar stellar-scan direct; do
    ./target/release/skycube query --data "$SMOKE_DIR/data.csv" \
        --source "$src" --workload "$SMOKE_DIR/workload.txt" --cache 4 \
        > "$SMOKE_DIR/out.$src"
done
# Answers (everything except the trailing stats line) must be identical
# across sources.
grep -v '^#' "$SMOKE_DIR/out.stellar" > "$SMOKE_DIR/expect.txt"
for src in stellar-scan direct; do
    grep -v '^#' "$SMOKE_DIR/out.$src" > "$SMOKE_DIR/got.txt"
    if ! diff "$SMOKE_DIR/expect.txt" "$SMOKE_DIR/got.txt" > /dev/null; then
        echo "query smoke: $src disagrees with stellar" >&2
        exit 1
    fi
done

echo '== byte-identity gate: skycube build output is unchanged'
# The sha256 of the text cube, at default threads and at --threads 1, and
# of the binary cube, for one generated 2,000 × 5 dataset per
# distribution, plus the independent one quantized to 10 values per
# dimension (1,982 distinct rows, ties with seed values everywhere). A
# change that means to alter answers updates these values and says why in
# CHANGES.md.
check_sha256() {
    got=$(sha256sum "$1" | cut -d ' ' -f 1)
    if [ "$got" != "$2" ]; then
        echo "byte-identity gate: $1 has sha256 $got, expected $2" >&2
        exit 1
    fi
}
# hash_gate CSV TEXT_SHA BINARY_SHA
hash_gate() {
    csv="$1"
    ./target/release/skycube build --data "$csv" --out "$csv.txt" > /dev/null
    ./target/release/skycube build --data "$csv" --out "$csv.t1.txt" \
        --threads 1 > /dev/null
    ./target/release/skycube build --data "$csv" --out "$csv.bin" \
        --format binary > /dev/null
    check_sha256 "$csv.txt" "$2"
    check_sha256 "$csv.t1.txt" "$2"
    check_sha256 "$csv.bin" "$3"
}
for dist in correlated independent anti-correlated; do
    ./target/release/skycube generate --dist "$dist" --count 2000 --dims 5 \
        --seed 7 --out "$SMOKE_DIR/hash-$dist.csv" > /dev/null
done
awk -F, -v OFS=, 'NR==1{print;next}{for(i=1;i<=NF;i++) $i=int($i/1000)}1' \
    "$SMOKE_DIR/hash-independent.csv" > "$SMOKE_DIR/hash-tied.csv"
hash_gate "$SMOKE_DIR/hash-correlated.csv" \
    20e4a8ae5f1078a539e64d9be96f7b47a17202f4a4e4efc414c7b4aeb4301f1f \
    0630e624ff38679956034447294b90db4aab012ab7982601786b314dd99e0e69
hash_gate "$SMOKE_DIR/hash-independent.csv" \
    59716d45b9390c2e64692d9bc65d94c2d92c4417186eeb91bfe2e4dc642b408a \
    0627a43697dedbc92aa86e661f406c6233102cb9423d8ba3ecea50e22b4c3544
hash_gate "$SMOKE_DIR/hash-anti-correlated.csv" \
    bfe1e497cacf00267665cba6cf9699c202885e00418cd6d75a162de05bc2f845 \
    9d53f3a66cca019b22c42f550cc6a90b41a5cea8158efe007a1af8453877b863
hash_gate "$SMOKE_DIR/hash-tied.csv" \
    6fe7a7fb9cb3897e1de1678efcffeca4d46a269b7f9dadc6233558ffaa5dc078 \
    1ca2da641fbbff2187e518e4ecc577f654da15b9a08218b79a74be4031632474

echo '== queries bench smoke: indexed == scan + memo self-verify'
# --verify asserts indexed == scan, zero demotions behind the fallback
# ladder, and memo hits on the warmed sweep; the grep is a belt-and-braces
# check that the memo summary actually landed in the JSON.
./target/release/queries --smoke --verify --json "$SMOKE_DIR/queries.json" \
    > "$SMOKE_DIR/queries.out"
if ! grep -q '"memo_exact": [1-9]' "$SMOKE_DIR/queries.json"; then
    echo "queries smoke: the warmed sweep never hit the memo" >&2
    exit 1
fi

echo '== maintenance bench smoke: patch path beats rebuild, index spliced'
# --verify asserts patched == full recompute, every stream mutation took the
# fast path, the subspace cache kept survivors across a generation sync, and
# the patch path beat the rebuild; the grep pins that at least one mutation
# spliced the CSR index in place rather than dropping it.
./target/release/maintenance --smoke --verify \
    --json "$SMOKE_DIR/maintenance.json" > "$SMOKE_DIR/maintenance.out"
if ! grep -q '"spliced_mutations": [1-9]' "$SMOKE_DIR/maintenance.json"; then
    echo "maintenance smoke: no mutation spliced the index in place" >&2
    exit 1
fi

echo '== persist bench smoke: binary load is validation-only and equivalent'
# --verify asserts the binary-loaded cube serves from borrowed sections
# (no rebuild) and answers every subspace, membership count, and top-k
# identically to the cube it was written from; the grep pins that the
# full 31-subspace verification actually ran.
./target/release/persist --smoke --verify --json "$SMOKE_DIR/persist.json" \
    > "$SMOKE_DIR/persist.out"
if ! grep -q '"verified_subspaces": 31' "$SMOKE_DIR/persist.json"; then
    echo "persist smoke: subspace verification did not run" >&2
    exit 1
fi

echo '== binary round-trip smoke: build --format binary, query --cube'
# The binary artifact must answer the same workload as the text one
# (the format is auto-detected by magic).
./target/release/skycube build --data "$SMOKE_DIR/data.csv" \
    --out "$SMOKE_DIR/cube.txt" > /dev/null
./target/release/skycube build --data "$SMOKE_DIR/data.csv" \
    --out "$SMOKE_DIR/cube.bin" --format binary > /dev/null
for cube in cube.txt cube.bin; do
    ./target/release/skycube query --cube "$SMOKE_DIR/$cube" \
        --workload "$SMOKE_DIR/workload.txt" \
        | grep -v '^#' > "$SMOKE_DIR/out.$cube"
done
if ! diff "$SMOKE_DIR/out.cube.txt" "$SMOKE_DIR/out.cube.bin" > /dev/null; then
    echo "binary round-trip smoke: cube.bin disagrees with the text cube" >&2
    exit 1
fi
# A flipped payload byte must be rejected by the section checksums, and a
# file with a damaged magic must fail cleanly, never serve garbage.
perl -e 'local $/; my $b = <STDIN>; my @c = split //, $b;
         $c[int(@c / 2)] = chr(ord($c[int(@c / 2)]) ^ 1);
         print join "", @c' < "$SMOKE_DIR/cube.bin" > "$SMOKE_DIR/cube.flip"
if ./target/release/skycube skyline --cube "$SMOKE_DIR/cube.flip" \
    --space AB > /dev/null 2> "$SMOKE_DIR/flip.err"; then
    echo "binary round-trip smoke: flipped byte was accepted" >&2
    exit 1
fi
if ! grep -q 'checksum mismatch' "$SMOKE_DIR/flip.err"; then
    echo "binary round-trip smoke: checksum diagnostic missing" >&2
    exit 1
fi
perl -e 'local $/; my $b = <STDIN>; substr($b, 0, 1) = "\xff"; print $b' \
    < "$SMOKE_DIR/cube.bin" > "$SMOKE_DIR/cube.badmagic"
if ./target/release/skycube skyline --cube "$SMOKE_DIR/cube.badmagic" \
    --space AB > /dev/null 2>&1; then
    echo "binary round-trip smoke: damaged magic was accepted" >&2
    exit 1
fi

echo '== fault-injection suite (--features faults)'
# The deterministic fault matrix: every injected fault must end in a
# classified ServeError or a demoted-but-correct answer, never an abort.
cargo test -q --features faults --test faults
cargo test -q -p skycube-serve --features faults

echo '== fault smoke: injected route panics demote to exit 0'
cargo build --release --features faults
# Panic backtraces from the injected faults land on stderr by design;
# discard them and judge only the exit code and the demotion counter.
./target/release/skycube query --data "$SMOKE_DIR/data.csv" \
    --source stellar --workload "$SMOKE_DIR/workload.txt" \
    --inject-faults panic-route > "$SMOKE_DIR/out.faults" 2>/dev/null
if ! grep -Eq 'demotions=[1-9]' "$SMOKE_DIR/out.faults"; then
    echo "fault smoke: the injected panic never demoted" >&2
    exit 1
fi
# A fault the command would not act on is refused by name: a route fault
# on a source that never takes it, and a daemon fault on a one-shot query.
# refuse_fault FAULT ARGS...: the query must exit 1 and name FAULT.
refuse_fault() {
    fault="$1"
    shift
    status=0
    ./target/release/skycube query --data "$SMOKE_DIR/data.csv" \
        --workload "$SMOKE_DIR/workload.txt" "$@" \
        > /dev/null 2> "$SMOKE_DIR/refused.err" || status=$?
    if [ "$status" -ne 1 ]; then
        echo "fault smoke: $* exited $status, expected 1" >&2
        exit 1
    fi
    if ! grep -q -- "--inject-faults $fault " "$SMOKE_DIR/refused.err"; then
        echo "fault smoke: the refusal of $* does not name $fault" >&2
        cat "$SMOKE_DIR/refused.err" >&2
        exit 1
    fi
}
refuse_fault panic-route --source direct --inject-faults panic-route
refuse_fault kill-mid-mutation --inject-faults kill-mid-mutation=1

echo '== serve daemon smoke: socket protocol, metrics, clean shutdown'
# Start a resident daemon on a Unix socket, drive the full verb set over
# one connection ending in quit (closes that connection only), compare the
# replies byte-for-byte with the one-shot batch path, then scrape the
# metrics and stop the daemon with shutdown on a second connection.
printf 'skyline ABD\nskyband 1 AB\nskyband 2 ABD\nmember 17 ABD\ncount 17\ntop 3\n' \
    > "$SMOKE_DIR/verbs.txt"
cat "$SMOKE_DIR/verbs.txt" > "$SMOKE_DIR/verbs-quit.txt"
echo 'quit' >> "$SMOKE_DIR/verbs-quit.txt"
./target/release/skycube serve --data "$SMOKE_DIR/data.csv" \
    --socket "$SMOKE_DIR/daemon.sock" < /dev/null \
    2> "$SMOKE_DIR/daemon.err" &
DAEMON_PID=$!
if ! wait_ready "$SMOKE_DIR/daemon.err" "$SMOKE_DIR/daemon.sock"; then
    echo "daemon smoke: socket never became ready" >&2
    exit 1
fi
./target/release/skycube connect --socket "$SMOKE_DIR/daemon.sock" \
    --workload "$SMOKE_DIR/verbs-quit.txt" > "$SMOKE_DIR/daemon.out"
# The same verbs through a one-shot process (skyband 2 needs the
# dataset-backed fallback rung there, as it does in the daemon).
./target/release/skycube query --data "$SMOKE_DIR/data.csv" --fallback \
    --workload "$SMOKE_DIR/verbs.txt" | grep -v '^#' > "$SMOKE_DIR/batch.out"
if ! diff "$SMOKE_DIR/batch.out" "$SMOKE_DIR/daemon.out" > /dev/null; then
    echo "daemon smoke: socket replies differ from the one-shot batch" >&2
    diff "$SMOKE_DIR/batch.out" "$SMOKE_DIR/daemon.out" >&2 || true
    exit 1
fi
printf 'stats\nshutdown\n' | ./target/release/skycube connect \
    --socket "$SMOKE_DIR/daemon.sock" > "$SMOKE_DIR/daemon.stats"
for needle in 'queries_total 6' 'shed_total 0' 'connections_total' \
    'route_flat_queries' 'memo_exact'; do
    if ! grep -q "^$needle" "$SMOKE_DIR/daemon.stats"; then
        echo "daemon smoke: metric '$needle' missing from stats scrape" >&2
        exit 1
    fi
done
wait "$DAEMON_PID"
if [ -S "$SMOKE_DIR/daemon.sock" ]; then
    echo "daemon smoke: socket file survived shutdown" >&2
    exit 1
fi

echo '== durability smoke: kill -9 mid-mutation-stream, restart replays the wal'
# The faults build aborts the daemon right after the 3rd WAL record is
# fsync'd and *before* the engine patches — the crash-recovery worst case.
# The restart must report a non-zero replay and end up at generation 3.
./target/release/skycube serve --data "$SMOKE_DIR/data.csv" \
    --wal "$SMOKE_DIR/daemon.wal" --socket "$SMOKE_DIR/crash.sock" \
    --inject-faults kill-mid-mutation=3 < /dev/null \
    2> "$SMOKE_DIR/crash.err" &
CRASH_PID=$!
if ! wait_ready "$SMOKE_DIR/crash.err" "$SMOKE_DIR/crash.sock"; then
    echo "durability smoke: crash daemon never bound its socket" >&2
    exit 1
fi
printf 'insert 1 2 3 4\ninsert 2 3 4 5\ninsert 3 4 5 6\ninsert 4 5 6 7\n' | \
    ./target/release/skycube connect --socket "$SMOKE_DIR/crash.sock" \
    > "$SMOKE_DIR/crash.out" 2> /dev/null || true
wait "$CRASH_PID" 2> /dev/null || true
rm -f "$SMOKE_DIR/crash.sock"
./target/release/skycube serve --data "$SMOKE_DIR/data.csv" \
    --wal "$SMOKE_DIR/daemon.wal" --socket "$SMOKE_DIR/crash.sock" \
    < /dev/null 2> "$SMOKE_DIR/recover.err" &
RECOVER_PID=$!
if ! wait_ready "$SMOKE_DIR/recover.err" "$SMOKE_DIR/crash.sock"; then
    echo "durability smoke: recovered daemon never bound its socket" >&2
    exit 1
fi
if ! grep -q 'wal_replayed=[1-9]' "$SMOKE_DIR/recover.err"; then
    echo "durability smoke: restart did not replay the wal" >&2
    cat "$SMOKE_DIR/recover.err" >&2
    exit 1
fi
printf 'stats\nshutdown\n' | ./target/release/skycube connect \
    --socket "$SMOKE_DIR/crash.sock" > "$SMOKE_DIR/recover.stats"
for needle in 'wal_replayed 3' 'generation 3' 'wal_records 3'; do
    if ! grep -q "^$needle" "$SMOKE_DIR/recover.stats"; then
        echo "durability smoke: '$needle' missing after recovery" >&2
        cat "$SMOKE_DIR/recover.stats" >&2
        exit 1
    fi
done
wait "$RECOVER_PID"

echo '== tcp smoke: the tcp listener answers identically to the unix socket'
./target/release/skycube serve --data "$SMOKE_DIR/data.csv" \
    --socket "$SMOKE_DIR/tcp.sock" --listen 127.0.0.1:0 < /dev/null \
    2> "$SMOKE_DIR/tcp.err" &
TCP_PID=$!
# The tcp listener is bound and reported before the unix one.
if ! wait_ready "$SMOKE_DIR/tcp.err" "$SMOKE_DIR/tcp.sock" \
    || ! grep -q 'listening on tcp' "$SMOKE_DIR/tcp.err"; then
    echo "tcp smoke: daemon never reported both listeners ready" >&2
    exit 1
fi
TCP_ADDR=$(sed -n 's/^# ready: listening on tcp //p' "$SMOKE_DIR/tcp.err")
./target/release/skycube connect --tcp "$TCP_ADDR" --retries 3 \
    --workload "$SMOKE_DIR/verbs.txt" > "$SMOKE_DIR/tcp.out"
./target/release/skycube connect --socket "$SMOKE_DIR/tcp.sock" \
    --workload "$SMOKE_DIR/verbs.txt" > "$SMOKE_DIR/tcp-unix.out"
if ! diff "$SMOKE_DIR/tcp.out" "$SMOKE_DIR/tcp-unix.out" > /dev/null; then
    echo "tcp smoke: tcp replies differ from the unix socket" >&2
    exit 1
fi
if ! diff "$SMOKE_DIR/batch.out" "$SMOKE_DIR/tcp.out" > /dev/null; then
    echo "tcp smoke: tcp replies differ from the one-shot batch" >&2
    exit 1
fi
printf 'shutdown\n' | ./target/release/skycube connect \
    --socket "$SMOKE_DIR/tcp.sock" > /dev/null
wait "$TCP_PID"

echo '== drain smoke: in-flight queries are answered before shutdown'
# A workload whose final line is shutdown: every query ahead of it on the
# same connection must still be answered — zero dropped — and the daemon
# must then exit and remove its socket.
cat "$SMOKE_DIR/verbs.txt" > "$SMOKE_DIR/drain.txt"
echo 'shutdown' >> "$SMOKE_DIR/drain.txt"
./target/release/skycube serve --data "$SMOKE_DIR/data.csv" \
    --socket "$SMOKE_DIR/drain.sock" < /dev/null \
    2> "$SMOKE_DIR/drain.err" &
DRAIN_PID=$!
if ! wait_ready "$SMOKE_DIR/drain.err" "$SMOKE_DIR/drain.sock"; then
    echo "drain smoke: daemon never bound its socket" >&2
    exit 1
fi
./target/release/skycube connect --socket "$SMOKE_DIR/drain.sock" \
    --workload "$SMOKE_DIR/drain.txt" > "$SMOKE_DIR/drain.out"
if ! diff "$SMOKE_DIR/batch.out" "$SMOKE_DIR/drain.out" > /dev/null; then
    echo "drain smoke: a query in flight at shutdown was dropped" >&2
    diff "$SMOKE_DIR/batch.out" "$SMOKE_DIR/drain.out" >&2 || true
    exit 1
fi
wait "$DRAIN_PID"
if [ -S "$SMOKE_DIR/drain.sock" ]; then
    echo "drain smoke: socket file survived shutdown" >&2
    exit 1
fi

echo '== serve bench smoke: daemon ≡ batch'
./target/release/serve --smoke --verify --json "$SMOKE_DIR/serve.json" \
    > "$SMOKE_DIR/serve.out"
if ! grep -q '"verified_subspaces": 15' "$SMOKE_DIR/serve.json"; then
    echo "serve bench smoke: subspace verification did not run" >&2
    exit 1
fi

echo '== ci.sh: all green'
