package experiments

// designProse holds the authored architecture sections of
// docs/DESIGN.md. The prose is maintained here — next to the emitter
// that publishes it — while the figure/ablation inventory that
// follows it in the document is generated from the registry, so the
// two can never disagree about what the simulator measures.
const designProse = `This document records how the ZnG reproduction is layered and why.
The paper — *ZnG: Architecting GPU Multi-Processors with New Flash
for Scalable Data Analysis* (ISCA 2020) — replaces a GPU's DRAM with
Z-NAND flash arrays placed directly behind an STT-MRAM L2; the
simulator rebuilds that system, its six competitor platforms and the
paper's evaluation from scratch.

## Simulation engine (` + "`internal/sim`" + `)

Everything runs on one discrete-event kernel: an event queue ordered
by tick, bandwidth-limited ` + "`Port`" + `s, occupancy-limited ` + "`Resource`" + `s and
worker ` + "`Pool`" + `s. One tick is one GPU core cycle (1.2 GHz per Table I,
0.8333 ns); ` + "`internal/config`" + ` converts nanosecond device parameters to
ticks. Events are typed: a long-lived handler (a warp, a cache, a
flash controller) plus an argument, usually the in-flight request,
which its issuer recycles once complete, so the hot path allocates
nothing. What a run does grow is cut from slabs: in-flight records
come from chunked free lists (` + "`sim.FreeList`" + `, whose capacity doubles
from 8 records in chunks of at most 64), and flash block state from
backbone-wide slabs of block records and valid bits
(` + "`internal/flash`" + `). A block gets a record only when the FTL first
touches it; one backbone-wide index maps (plane, block id) to it, and
each plane links its touched blocks in id order, so block state
follows the blocks a cell uses (one to eight a plane at 64x), not the
1,024 planes of 1,024 blocks each it could use. Flash registers
follow the pages a cell writes the same way: one backbone-wide LRU
index keyed by page (` + "`intmap.LRU`" + `, which the TLBs and HybridGPU's
DRAM page buffer share) gives a
page its register slot on its first write, where preallocating all
8,192 of ZnG's registers cost 0.6 MB a cell whose writes touch 430 to
800 pages. The benchmark's 64x cells make 850 to 1,400 allocations
each, where one per record and block made 8,000 to 12,000. The queue is a timing wheel of per-tick
FIFO lists over the next 8,192 ticks, backed by a 4-ary min-heap for
later events, and same-tick events fire FIFO, a contract the tests pin
because determinism is load-bearing: a simulation is a pure function
of its inputs, which is what lets one service simulate each cell once
and answer every later request for it (see below). An event scheduled
before the current tick panics, since only a bug can ask for one.

## Configuration (` + "`internal/config`" + `)

` + "`config.Default`" + ` transcribes Table I, but zngd takes any configuration
from the network and keys cells by all of it. So every numeric field
carries a ` + "`range`" + ` tag declaring what the model runs: a lower bound the
model runs as the field says, a power-of-two marker where the model
masks with the value, and a cap on what one cell may ask of the host
(latencies below 2^32 ticks and bandwidths of at least 0.001 GB/s, so
600M events cannot overflow a tick; at most 65,536 planes and 2^20
lines per cache). ` + "`Config.Validate`" + ` checks them in one walk of the JSON
codec's field plan, allocating nothing for a valid configuration, and
` + "`platform.RunApps`" + ` and zngd's ` + "`/v1/run`" + ` call it before building anything.
Derived sizes are not fields: the flash mesh is the smallest square
grid with a router per package (4x4 under Table I).

## Workload model (` + "`internal/workload`" + `, ` + "`internal/rng`" + `)

The paper drives MacSim with real program traces; those are not
available, so the reproduction substitutes deterministic synthetic
streams calibrated to Table II's read ratios and Fig. 5's locality
statistics (reads re-access pages ~42x, writes ~65x). Traces are pure
functions of (seed, app, kernel, warp) over an O(1)-seedable
xoshiro256** generator, so any cell can be regenerated byte-identically
at any scale.

Workloads are organized as a scenario subsystem: a ` + "`Mix`" + ` is a named
list of {app, weight} components instantiating N co-resident
applications with disjoint address spaces, and ` + "`workload.Scenarios`" + `
registers the vocabulary — the twelve co-run pairs of Figs. 5/10/11
(a read-intensive app paired with a write-intensive one, as the paper
does), per-app solo runs, consolidation mixes of degree 1-4, pure
read/write stress mixes, and a co-run of one generator family beyond
Table II: an OLTP transaction stream (fixed-shape read-modify-write
transactions with scattered, burst-free stores). Every family passes
the same ` + "`Characterize`" + ` calibration tolerances.

## Flash, FTL and the SSD module (` + "`internal/flash`" + `, ` + "`internal/ftl`" + `, ` + "`internal/ssd`" + `)

` + "`internal/flash`" + ` models the Z-NAND backbone of Section II-B: 16
channels of SLC vertical NAND (3 us reads, 100 us programs, 100k P/E),
page-granularity access, in-order programming within a block,
erase-before-write, and the programmable row decoder of Section IV-A.
` + "`internal/ftl`" + ` implements both translation layers the evaluation
compares: the conventional page-mapped firmware FTL, and the paper's
split FTL (Sections III-B/IV-A) whose read-only data-block mapping
table lives in the GPU MMU while writes are remapped by per-group log
blocks, with garbage-collection merges running on a GPU helper thread.
` + "`internal/ssd`" + ` assembles HybridGPU's embedded SSD module — dispatcher,
firmware engine cores (the component Fig. 4d blames for ~67% of its
latency), single-package DRAM buffer, legacy shared-bus channels. The
buffer is one set of an ` + "`intmap.LRU`" + ` whose payload is a page's dirty
bit, so its slots follow the pages a cell touches rather than the 2 GB
it models; each channel is one ` + "`sim.Port`" + ` that every package on it
shares.

## MMU, caches and the ZnG optimizations (` + "`internal/mmu`" + `, ` + "`internal/cache`" + `, ` + "`internal/prefetch`" + `, ` + "`internal/regcache`" + `)

Address translation follows Section II-A: per-SM L1 TLBs behind a
shared MMU with a 32-thread page-table walker. ZnG's MMU embeds the
split FTL's read mapping, so a TLB miss resolves straight to a flash
location with no firmware hop. ` + "`internal/cache`" + ` provides the L1s and the
6 MB SRAM / 24 MB STT-MRAM L2s over a flat, set-major tag store of
one 8-byte word per way: the line number, the way's LRU rank within
its set, the flag bits and a valid bit. Each set is one row of words,
so a lookup is one modulo and one contiguous scan (one 64 B host line
for an 8-way set), and a hit or fill re-ranks that row in place
instead of stamping a global clock. The flags include the L2 tag extension bits of
Section IV-B that feed ZnG's two data-path optimizations:
` + "`internal/prefetch`" + ` (the dynamic read-prefetcher and its waste
monitor, Fig. 8a) and ` + "`internal/regcache`" + ` (plane cache registers
grouped into a write cache over SWnet/FCnet/NiF interconnects,
Sections III-C/IV-C; without the grouping, each plane's own two
registers stage its pages). Both register modes are one exact-LRU
index whose sets are packages or planes, so an eviction takes the
least recently written page without scanning the set. ` + "`internal/noc`" + ` carries both the GPU-internal
network and the flash mesh of Fig. 6a, one router per flash package; ` + "`internal/dram`" + ` supplies the
GDDR5/DDR4/LPDDR4/Optane baselines with Table I timing.

## Platforms (` + "`internal/platform`" + `)

One constructor per evaluated system — Hetero, HybridGPU, Optane,
ZnG-base, ZnG-rdopt, ZnG-wropt, ZnG, plus the GDDR5 reference —
assembles those parts behind a common ` + "`RunMix`" + ` entry point taking any
workload mix and returning a ` + "`Result`" + ` (IPC, cycle count, flash-array
bandwidth, per-plane program counts, cache/TLB hit rates,
driver-specific extras). Platforms differ only in composition, never
in model code, so a figure comparing them measures architecture, not
implementation drift.

## Experiments and reporting (` + "`internal/experiments`" + `, ` + "`internal/stats`" + `, ` + "`internal/report`" + `)

` + "`internal/experiments`" + ` holds one driver per table/figure plus the
registry that binds each figure id to its driver, paper reference,
claim and shape check. Every driver has one signature,
` + "`func(Options) (*stats.Table, error)`" + `, and is its registry entry's
` + "`Run`" + `, named there once: the inventory below and the figure
benchmarks print the name of the function ` + "`Run`" + ` is. The table is the
figure's only output, so the shape check, ` + "`zngfig`" + `, the examples and
these docs all read the same cells. A check reads each cell by row
label and column header, never by position, and its first failed read
(a missing row or column, a non-numeric cell) is its FAIL verdict; the
test suite requires every check to pass on a one-pair run and to FAIL
on a table that breaks its shape.
Drivers run their cells through an injectable ` + "`Runner`" + ` carried by
` + "`Options`" + ` — by default a memory-only ` + "`simsvc.Service`" + `, the scheduler
zngd serves from, without a store, which keys each cell by
(platform, mix ID, scale, config) and runs a worker only while a
cell is queued; the mix participates through its
canonical content identity, so scenarios aliasing the same
composition share one simulation and one result, labelled with that
ID by ` + "`platform.RunMix`" + ` and by no runner after it — and the full figure
suite performs each unique simulation exactly once per runner. A
model panic, such as a trace that outgrows a valid flash, is
` + "`platform.RunMix`" + `'s error naming the platform: one failed cell on every
runner.
` + "`internal/stats`" + ` provides counters, breakdowns and the
deterministic table type every driver returns; ` + "`internal/report`" + `
renders those tables to Markdown/CSV/JSON (plus the canonical
per-result JSON document the store persists), and
` + "`internal/experiments`" + ` composes this document and
[EXPERIMENTS.md](EXPERIMENTS.md) from them, so the codec, the store
and the service never link the figure registry. ` + "`cmd/zngfig`" + ` is the
thin CLI over all of it; ` + "`cmd/zngsim`" + ` runs a single (platform, mix)
cell and dumps every measurement.

## Serving: result store and simulation service (` + "`internal/store`" + `, ` + "`internal/simsvc`" + `, ` + "`cmd/zngd`" + `)

Because a simulation is a pure function of (platform, mix ID, scale,
config), its result can outlive the process: ` + "`internal/store`" + ` is a
persistent content-addressed store that files each result under the
SHA-256 of a canonical encoding of exactly those inputs plus a schema
version (bumping it invalidates every stale entry at once). Writes
are atomic — temp file, then rename — so concurrent processes sharing
a cache directory never observe a torn entry, and any undecodable
entry reads as a miss that re-simulation heals. A document carries
per-plane program counts only when a plane was programmed, so a flash
cell that never programs stores under 1 KB, not 7 KB of zeros.
` + "`internal/simsvc`" + `
fronts the store with a job scheduler: a bounded worker pool drains a
FIFO-with-priority queue and runs only while jobs are queued,
concurrent requests for the same cell coalesce onto one in-flight job
named by the cell's key (the address of its store document), and
every request resolves through memory, then disk, then simulation —
with counters (sims, memory hits, disk hits, coalesced waiters) at
each step. A caller waits on its job one way, with or without a
deadline, and stops when its context ends: a synchronous HTTP run
whose client leaves returns while the job runs on. The service
implements ` + "`campaign.Runner`" + `, the one runner interface, so the
figure drivers, ` + "`zngfig`" + `, ` + "`zngsweep`" + `, ` + "`zngsim -cache`" + ` and ` + "`cmd/zngd`" + ` — the HTTP JSON
daemon exposing run/jobs/campaigns/scenarios/platforms/healthz/metrics
endpoints with graceful drain on shutdown — all serve simulations
through one code path. The daemon's job history is bounded: past the
retention limit the oldest persisted (or failed) jobs are evicted and
their cells re-serve from disk.

The serving hot path is tiered the way FlashGraph/FlashX front
SSD-resident data with a page cache: ` + "`internal/restier`" + ` keeps a
capacity-bounded LRU of decoded result documents over the store, so
lookups resolve memory, then disk (promoting the hit), then
simulation — and a cell's document is byte-identical no matter which
tier answered or which alias asked: a tier only moves the stored bytes
closer. Admission is bounded too: past a configurable pending-queue
depth the service refuses new simulation work with an overload error
the HTTP layer maps to 429 plus a Retry-After estimate derived from
recent per-simulation latency, so an overloaded daemon sheds fresh
work while memory and disk hits keep serving. Wall-clock never enters
the simulation core (the determinism analyzer enforces that); the
serving layer alone feeds fixed-bucket histograms
(` + "`internal/latency`" + `) that surface per-endpoint p50/p95/p99 and
hit-tier gauges in /metrics, and ` + "`cmd/zngload`" + ` drives a live daemon
at configurable concurrency over a scenario mix, reporting throughput
and latency quantiles as JSON and failing below configurable floors —
the CI gate that keeps the hot path fast.

## Campaigns and distributed fan-out (` + "`internal/campaign`" + `, ` + "`internal/remote`" + `, ` + "`cmd/zngsweep`" + `)

The paper's evaluation is a matrix, and ` + "`internal/campaign`" + ` makes the
matrix a first-class object: a declarative ` + "`Spec`" + ` names a grid —
platforms × scenarios × trace scales × configuration overrides, each
a partial ` + "`config.Config`" + ` document decoded over the base exactly as
zngd decodes a run request's ` + "`\"config\"`" + `, so any field is a knob —
and expands deterministically into
content-addressed cells, each keyed by the same ` + "`internal/cellkey`" + `
hash the store files results under, so identical cells across
campaigns (and across figure drivers) dedupe. An ` + "`Executor`" + ` drives
the cells through any runner with bounded concurrency, live progress
counters and per-cell partial-failure reporting, running each cell
once, then folds the results into the same deterministic table type
every figure emits. Every simulated figure builds its grid this way and runs
it on one ` + "`Executor`" + ` over the figure runner: the Fig. 13 thresholds,
the register interconnects and the L2 capacities are override
documents.
` + "`internal/remote`" + ` scales execution horizontally: a ` + "`Client`" + `
implements the runner interface against one zngd peer (each request
carries the cell's full configuration, so both sides hash the same
key and distributed results are byte-identical to local ones), and a ` + "`Dispatcher`" + ` shards cells
across N peers — least-loaded work stealing, a cooldown for a faulted
peer, its cell re-routed to another — turning several daemons into
one simulation fleet. ` + "`cmd/zngsweep`" + ` is the CLI (spec from flags or
JSON; ` + "`-coordinator`" + ` runs the campaign on a fleet coordinator), and
zngd's ` + "`/v1/campaigns`" + ` endpoints run the same campaigns
asynchronously, pollable by campaign id.

` + "`internal/fleet`" + ` makes that fleet elastic and its campaigns durable,
and its coordinator is the one distributed mode: the only way a
campaign's cells leave the process. A fleet coordinator — every zngd
is one — accepts worker registrations and load-reporting
heartbeats at runtime (` + "`/v1/fleet`" + ` endpoints; ` + "`-coordinator`" + ` runs a
daemon as a worker of another); liveness is lazy — a peer whose
heartbeat window lapses is expired on the next observation, its
in-flight cells reassigned to survivors or run locally, and a
re-registered worker rejoins campaigns already in flight. Campaigns
run on a store-backed coordinator checkpoint themselves with one
record per cell: the coordinator reads the content-addressed store
before it dispatches any cell and writes every successful result
back, so the only campaign document is the spec under the store
(content-addressed campaign id = SHA-256 of the spec with each
override replaced by the configuration it applies, so spellings of one
override that decode alike name one campaign, its encoding guarded by
the same canonical-key analyzer that guards the store codecs; atomic
temp+rename writes). A restarted coordinator
resumes a half-finished sweep (` + "`/v1/campaigns/{id}/resume`" + `,
` + "`zngsweep -resume`" + `) by re-running whatever the store lacks — a
failed cell included, since no error is ever persisted — and serving
every other cell from the store with zero re-simulation; because
cells are pure functions of their inputs, the resumed, rebalanced
matrix folds byte-identical to an uninterrupted local run, a property
the fault-path tests and CI's fleet-smoke job pin.

## Observability (` + "`internal/obs`" + `)

A distributed campaign is only debuggable if one cell's lifecycle
reads as one story, so ` + "`internal/obs`" + ` adds cross-process tracing in
the stdlib: request ingress mints a 64-bit trace id, the
` + "`X-Zng-Trace`" + ` header carries the (trace, parent-span) context on
every fleet hop, and workers piggyback their completed span records —
queue wait, per-tier lookup, simulation, store write-through — on the
response, so the coordinator's flight recorder (a bounded,
overwrite-oldest ring) reconstructs the whole coordinator-dispatch →
peer-round-trip → worker-execution tree under a single id, even
across mid-flight reassignment (` + "`/v1/trace`" + ` endpoints;
` + "`zngsweep -v`" + ` and ` + "`cmd/zngload`" + ` print the per-stage p50/p95
breakdown). Campaign and propagated traces are always kept; ad-hoc
requests are head-sampled, and a sampled-out request costs the warm
path one atomic add. The same package renders /metrics as Prometheus
text exposition (cumulative ` + "`_bucket`" + `/` + "`_sum`" + `/` + "`_count`" + ` series
over the ` + "`internal/latency`" + ` histograms) and routes ` + "`log/slog`" + `
structured logging with per-subsystem levels. None of it touches the
simulation core: the determinism analyzer pins ` + "`internal/obs`" + ` and
` + "`internal/latency`" + ` as time sinks only the serving layer may import.

## Static analysis (` + "`internal/lint`" + `, ` + "`cmd/znglint`" + `)

The invariants everything above leans on — determinism, lock
discipline, registry completeness, canonical content keys — are
machine-enforced by a go/analysis-style suite (self-contained on the
standard library; packages load through ` + "`go list -export`" + `, so the
analyzers see exactly what the compiler builds). Four analyzers:
*determinism* forbids wall-clock reads, ` + "`math/rand`" + ` outside
` + "`internal/rng`" + ` and order-sensitive map iteration in the simulation
and reporting core; *guardedby* checks fields annotated
` + "`guarded by mu`" + ` against an intraprocedural lock tracker in the
concurrent serving layers; *registry* resolves each figure entry's
` + "`Run`" + ` to an exported driver, re-proves the driver/registry
bijection and checks scenario reachability at type-check time;
*canonicalkey* rejects interface, func, chan and unsortable-map
fields in any type passed to ` + "`cellkey.Key`" + ` or
` + "`report.EncodeResult`" + `, the two encoders content addresses ride on.
` + "`cmd/znglint ./...`" + ` runs the suite (CI gates on it), and the lint
tests replay each analyzer against fixture packages with
expected-finding annotations.
`
