# Convenience targets for the reproduction.

.PHONY: install test lint bench bench-perf bench-server bench-cluster bench-workload golden tables census races chaos explore litmus serve cluster workload failover quick all

install:
	pip install -e . --no-build-isolation

test:
	pytest tests/

lint:
	ruff check src tests benchmarks

bench:
	pytest benchmarks/ --benchmark-only

# Wall-clock cost of the simulator itself; writes BENCH_kernel_perf.json
# with improvement ratios against the pinned pre-optimisation baseline.
bench-perf:
	PYTHONPATH=src python benchmarks/bench_kernel_perf.py

# Multi-tenant RPC server SLO sweep (policy x pool size x load); writes
# BENCH_server.json with p50/p95/p99/p999, throughput and shed counts.
bench-server:
	PYTHONPATH=src python benchmarks/bench_server.py

# Sharded cluster SLO sweep (routing policy x shard count x admission x
# mix) plus the single-server baseline; writes BENCH_cluster.json.
bench-cluster:
	PYTHONPATH=src python benchmarks/bench_cluster.py

# Million-client workload scenarios + cache stampede contrast + the
# SLO-attainment feedback loop; writes BENCH_workload.json.
bench-workload:
	PYTHONPATH=src python benchmarks/bench_workload.py

# The golden-schedule determinism guard on its own.
golden:
	PYTHONPATH=src python -m pytest tests/test_golden_schedule.py -q

tables:
	PYTHONPATH=src python -m repro tables

census:
	PYTHONPATH=src python -m repro census

races:
	PYTHONPATH=src python -m repro races

# Seeded fault-injection sweep with the waits-for watchdog and invariant
# checks; writes the JSON report (see docs/ROBUSTNESS.md).
chaos:
	PYTHONPATH=src python -m repro chaos --smoke --output chaos-report.json

# Systematic schedule exploration: find the directed scenarios' bugs,
# shrink each to a minimal replayable trace, write the JSON report (see
# docs/EXPLORATION.md).
explore:
	PYTHONPATH=src python -m repro --seed 0 explore --scenario all --budget 200 --output explore-report.json

# Litmus battery: enumerate reachable SB/MP/LB/IRIW outcomes under the
# sc/tso/pso memory models, check the pinned tables, and save a
# replayable witness trace for every beyond-SC outcome (see
# docs/MEMORY.md).
litmus:
	PYTHONPATH=src python -m repro --seed 0 litmus --trace-dir litmus-traces --output litmus-report.json

# The multi-tenant RPC server world with its latency-SLO report.
serve:
	PYTHONPATH=src python -m repro serve

# The sharded cluster world (balancer + N shards) with its SLO rollup.
cluster:
	PYTHONPATH=src python -m repro cluster

# A compiled million-client workload scenario with its SLO-attainment
# report (see docs/WORKLOAD.md).
workload:
	PYTHONPATH=src python -m repro workload

# The failover battery: directed kill-primary + partition-balancer chaos
# plus schedule exploration of the replicated cluster (zero lost
# acknowledged requests; see docs/CLUSTER.md "Replication & failover").
failover:
	PYTHONPATH=src python -m repro --seed 0 chaos --scenario cluster-kill-primary,cluster-partition-balancer --runs 0 --skip-golden --output failover-report.json
	PYTHONPATH=src python -m repro --seed 0 explore --scenario cluster-failover-train --budget 50 --output failover-explore.json

quick:
	PYTHONPATH=src python examples/quickstart.py

all: test bench
