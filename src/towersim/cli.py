"""Command-line entry point: verify, partition, and cost sweeps.

One YAML config file describes a run (topology, layout, tables, batch,
exchange options, tower module, partitioner, cost parameters); a handful of
flags override the top-level keys. Everything is deterministic given the
config, so re-running a command rewrites its outputs byte for byte.

Exit codes: 0 success, 2 config validation, 3 equivalence mismatch,
4 numeric failure, 5 I/O or ingestion failure, 1 anything else. EXIT_CODES
maps each package error class onto one of them.
"""

from __future__ import annotations

import argparse
import copy
import csv
import sys
from pathlib import Path
from typing import Optional, Sequence

import numpy as np
import yaml

from . import costmodel, exchange, partitioner, towermod
from .embedding import (
    COLUMN_WISE,
    ROW_WISE,
    SCHEMES,
    TABLE_WISE,
    EmbeddingTable,
    ShardedEmbedding,
    SparseBatch,
    TablePlan,
    init_table_deterministic,
    make_batch,
    shard_tables,
)
from .errors import (
    ConfigError,
    ConstraintError,
    DomainError,
    IngestionError,
    InvariantError,
    LayoutError,
    NumericError,
    PlanError,
    ProtocolError,
    ReportError,
    ShapeError,
    TableLookupError,
    TowersimError,
)
from .simnet import CommTrace
from .topology import ClusterTopology, TowerLayout
from .towermod import PASSTHROUGH, TMConfig

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_CONFIG = 2
EXIT_MISMATCH = 3
EXIT_NUMERIC = 4
EXIT_IO = 5

# (exit code, stderr prefix) of every package error class. Input-constraint
# errors exit as config errors; internal-invariant errors mean a defect in
# towersim, not in its input, and exit 1.
EXIT_CODES: dict[type, tuple[int, str]] = {
    ConfigError: (EXIT_CONFIG, "config error"),
    DomainError: (EXIT_CONFIG, "error"),
    PlanError: (EXIT_CONFIG, "error"),
    ConstraintError: (EXIT_CONFIG, "error"),
    IngestionError: (EXIT_IO, "i/o error"),
    NumericError: (EXIT_NUMERIC, "numeric error"),
    InvariantError: (EXIT_ERROR, "error"),
    LayoutError: (EXIT_ERROR, "error"),
    ShapeError: (EXIT_ERROR, "error"),
    ProtocolError: (EXIT_ERROR, "error"),
    TableLookupError: (EXIT_ERROR, "error"),
    ReportError: (EXIT_ERROR, "error"),
    TowersimError: (EXIT_ERROR, "error"),  # a class added without a row
}


def _defaults(cls, names: tuple[str, ...], **derived) -> dict:
    """A config block: dataclass ``cls``'s own defaults for ``names``, then ``derived``."""
    return {name: getattr(cls, name) for name in names} | derived


# exchange, tm and cost take their defaults from the dataclasses they fill. A
# None seed, or efficiency ({world: factor}), is derived when the run is built.
DEFAULT_CONFIG: dict = {
    "seed": 0,
    "output_dir": "out",
    "topology": {
        "num_hosts": 2,
        "ranks_per_host": 2,
    },
    "layout": {
        "hosts_per_tower": 1,
        "assignment": "contiguous",  # contiguous | strided | explicit
        "explicit": None,
    },
    "tables": {
        "count": 4,
        "rows": 16,
        "dim": 4,
        "hotness": 1,
        "sharding": TABLE_WISE,
        "shards_per_table": 1,
        "integer_values": True,
        "seed": None,
    },
    "batch": {"local_size": 2, "seed": None},
    "exchange": _defaults(exchange.ExchangeOptions, exchange.SWITCHES),
    "tm": _defaults(TMConfig, ("kind", *towermod.SIZES), seed=None),
    "partitioner": {
        "strategy": "coherent",
        "num_towers": 2,
        "balance": 1.0,
        "embed_dims": 2,
        "steps": 5000,  # SMACOF iteration cap
        "seed": None,
    },
    "cost": _defaults(costmodel.CostParams, costmodel.RATES, efficiency=None),
}


def _merge(base: dict, override: dict, path: str = "") -> dict:
    out = copy.deepcopy(base)
    for key, value in override.items():
        where = f"{path}.{key}" if path else key
        if key not in out:
            raise ConfigError(f"unknown config key {where!r}")
        if isinstance(out[key], dict) and isinstance(value, dict):
            out[key] = _merge(out[key], value, where)
        else:
            out[key] = value
    return out


def load_config(path: Optional[str] = None, overrides: Optional[dict] = None) -> dict:
    cfg = copy.deepcopy(DEFAULT_CONFIG)
    if path is not None:
        with open(path, "r", encoding="utf-8") as fh:
            loaded = yaml.safe_load(fh) or {}
        if not isinstance(loaded, dict):
            raise ConfigError(f"{path}: top level must be a mapping")
        cfg = _merge(cfg, loaded)
    if overrides:
        cfg = _merge(cfg, overrides)
    return cfg


def _block_seed(cfg: dict, block: str, salt: int) -> int:
    explicit = cfg[block].get("seed")
    if explicit is not None:
        return _num(explicit, f"{block}.seed")
    return (_num(cfg["seed"], "seed") * 1_000_003 + salt) % (2**63)


def _require(condition: bool, field: str, message: str) -> None:
    if not condition:
        raise ConfigError(f"{field}: {message}")


def _num(value, field: str, kind=int):
    """``value`` cast to ``kind``; a value that is not a number is a
    ConfigError naming the dotted ``field``."""
    try:
        return kind(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{field}: {value!r} is not a number") from None


def build_topology(cfg: dict) -> ClusterTopology:
    t = cfg["topology"]
    hosts = _num(t["num_hosts"], "topology.num_hosts")
    per_host = _num(t["ranks_per_host"], "topology.ranks_per_host")
    _require(hosts >= 1, "topology.num_hosts", "must be >= 1")
    _require(per_host >= 1, "topology.ranks_per_host", "must be >= 1")
    return ClusterTopology(num_hosts=hosts, ranks_per_host=per_host)


def build_layout(cfg: dict, topo: ClusterTopology) -> TowerLayout:
    h = _num(cfg["layout"]["hosts_per_tower"], "layout.hosts_per_tower")
    _require(h >= 1, "layout.hosts_per_tower", "must be >= 1")
    group = topo.ranks_per_host * h
    _require(
        topo.world_size % group == 0,
        "layout.hosts_per_tower",
        f"world size {topo.world_size} not divisible by ranks_per_host*hosts_per_tower={group}",
    )
    return TowerLayout(num_towers=topo.world_size // group, hosts_per_tower=h)


def build_tables(cfg: dict) -> tuple[dict[int, EmbeddingTable], dict[int, object]]:
    t = cfg["tables"]
    count = _num(t["count"], "tables.count")
    rows, dim = _num(t["rows"], "tables.rows"), _num(t["dim"], "tables.dim")
    _require(count >= 1, "tables.count", "must be >= 1")
    _require(t["sharding"] in SCHEMES, "tables.sharding", f"must be one of {SCHEMES}")
    seed = _block_seed(cfg, "tables", 1)
    tables = {
        tid: init_table_deterministic(tid, rows, dim, seed, bool(t["integer_values"]))
        for tid in range(count)
    }
    hot = t["hotness"]
    if isinstance(hot, (list, tuple)):
        _require(len(hot) == 2, "tables.hotness", "need [lo, hi]")
        lo, hi = (_num(h, "tables.hotness") for h in hot)
        _require(0 <= lo <= hi, "tables.hotness", "need [lo, hi]")
        hotness = {tid: (lo, hi) for tid in range(count)}
    else:
        _require(_num(hot, "tables.hotness") == 1, "tables.hotness",
                 "scalar hotness must be 1 (single-hot)")
        hotness = {tid: 1 for tid in range(count)}
    return tables, hotness


def _known_towers(mapping: dict[int, int], num_towers: int, field: str) -> dict[int, int]:
    """``mapping`` once every feature in it maps to one of ``num_towers``."""
    for feat, tower in mapping.items():
        _require(0 <= tower < num_towers, field, f"feature {feat} mapped to unknown tower {tower}")
    return mapping


def build_assignment(
    cfg: dict,
    layout: TowerLayout,
    num_features: int,
    assignment_path: Optional[str] = None,
) -> dict[int, int]:
    if assignment_path is not None:
        mapping = read_assignment(assignment_path)
        _require(
            sorted(mapping) == list(range(num_features)),
            "assignment",
            f"{assignment_path} does not cover features 0..{num_features - 1}",
        )
        return _known_towers(mapping, layout.num_towers, "assignment")
    mode = cfg["layout"]["assignment"]
    towers = layout.num_towers
    _require(
        num_features >= towers,
        "tables.count",
        f"need at least num_towers={towers} features",
    )
    if mode == "contiguous":
        sizes = towermod.balanced_group_sizes(num_features, towers)
        mapping, feat = {}, 0
        for tower, size in enumerate(sizes):
            for _ in range(size):
                mapping[feat] = tower
                feat += 1
        return mapping
    if mode == "strided":
        return {f: f % towers for f in range(num_features)}
    if mode == "explicit":
        explicit = cfg["layout"]["explicit"]
        _require(
            isinstance(explicit, list) and len(explicit) == num_features,
            "layout.explicit",
            f"need a list of {num_features} tower ids",
        )
        mapping = {f: _num(t, "layout.explicit") for f, t in enumerate(explicit)}
        return _known_towers(mapping, towers, "layout.explicit")
    raise ConfigError(f"layout.assignment: unknown mode {mode!r}")


def build_placement(
    cfg: dict,
    tables: dict[int, EmbeddingTable],
    assignment: dict[int, int],
    topo: ClusterTopology,
    layout: TowerLayout,
) -> ShardedEmbedding:
    t = cfg["tables"]
    scheme = t["sharding"]
    shards = _num(t["shards_per_table"], "tables.shards_per_table")
    plan = {}
    for tid, table in tables.items():
        per_table = 1 if scheme == TABLE_WISE else min(
            shards,
            table.dim if scheme == COLUMN_WISE else table.rows,
            layout.group_width(topo),
        )
        plan[tid] = TablePlan(scheme, per_table, assignment[tid])
    return shard_tables(tables, plan, topo, layout)


def build_batch(
    cfg: dict,
    topo: ClusterTopology,
    tables: dict[int, EmbeddingTable],
    hotness: dict[int, object],
) -> SparseBatch:
    size = _num(cfg["batch"]["local_size"], "batch.local_size")
    _require(size >= 1, "batch.local_size", "must be >= 1")
    return make_batch(topo, tables, size, hotness, _block_seed(cfg, "batch", 2))


def build_tm(cfg: dict) -> TMConfig:
    t = cfg["tm"]
    if t["kind"] == PASSTHROUGH:
        return TMConfig()
    sizes = {name: _num(t[name], f"tm.{name}") for name in towermod.SIZES}
    return TMConfig(kind=t["kind"], seed=_block_seed(cfg, "tm", 3), **sizes)


def build_options(cfg: dict) -> exchange.ExchangeOptions:
    switches = {name: bool(cfg["exchange"][name]) for name in exchange.SWITCHES}
    return exchange.ExchangeOptions(tower_modules=build_tm(cfg), **switches)


def build_cost_params(cfg: dict) -> costmodel.CostParams:
    c = cfg["cost"]
    efficiency = c["efficiency"]
    if efficiency is None:
        efficiency = costmodel.default_efficiency()
    else:
        _require(isinstance(efficiency, dict), "cost.efficiency", "need {world: factor}")
        efficiency = {
            _num(k, "cost.efficiency"): _num(v, f"cost.efficiency.{k}", float)
            for k, v in efficiency.items()
        }
    rates = {name: _num(c[name], f"cost.{name}", float) for name in costmodel.RATES}
    return costmodel.CostParams(efficiency=efficiency, **rates)


class RunContext:
    """Everything one exchange run needs, built from a config dict."""

    def __init__(self, cfg: dict, assignment_path: Optional[str] = None):
        self.cfg = cfg
        self.topo = build_topology(cfg)
        self.layout = build_layout(cfg, self.topo)
        self.tables, self.hotness = build_tables(cfg)
        self.assignment = build_assignment(
            cfg, self.layout, len(self.tables), assignment_path
        )
        self.placement = build_placement(
            cfg, self.tables, self.assignment, self.topo, self.layout
        )
        self.batch = build_batch(cfg, self.topo, self.tables, self.hotness)
        self.options = build_options(cfg)
        self.plan = exchange.TowerPlan(self.layout, self.assignment)

    def baseline_plan(self) -> tuple[CommTrace, dict[str, float]]:
        return exchange.baseline_plan(self.batch, self.placement, self.topo)

    def tower_plan(self) -> tuple[CommTrace, dict[str, float]]:
        return exchange.tower_plan(
            self.batch, self.placement, self.plan, self.topo, self.options
        )

    def run_baseline(self) -> exchange.ExchangeResult:
        """The functional baseline run, checked against its plan."""
        result = exchange.baseline_exchange(self.batch, self.placement, self.topo)
        exchange.check_plan("baseline", result, self.baseline_plan())
        return result

    def run_tower(self) -> exchange.ExchangeResult:
        """The functional tower run, checked against its plan."""
        result = exchange.tower_exchange(
            self.batch, self.placement, self.plan, self.topo, self.options
        )
        exchange.check_plan("tower", result, self.tower_plan())
        return result

    def compression(self) -> float:
        """The tower modules' savings factor: the features' table widths over
        the towers' step-e widths, which tower_plan prices at step f."""
        num_towers = self.layout.num_towers
        widths, counts = [], []
        for tower in range(num_towers):
            feats = self.plan.features_of(tower)
            _, width, _ = exchange._step_e_shape(
                self.options.tower_modules, self.placement, feats, tower, num_towers,
                self.batch.local_batch,
            )
            widths.append(width)
            counts.append(len(feats))
        (in_dim,) = {table.dim for table in self.tables.values()}  # all tables.dim wide
        return towermod.compression_ratio(widths, counts, in_dim)


def compare_exact(
    baseline: exchange.ExchangeResult, tower: exchange.ExchangeResult
) -> Optional[tuple[int, int, int, float, float]]:
    """First differing (rank, row, col, baseline, tower), realigning rank by rank, or None."""
    target = [ident for _, ident, _ in baseline.layout.blocks]
    columns = exchange.feature_columns(tower.layout, target)
    for rank in sorted(baseline.outputs):
        a = baseline.outputs[rank]
        b = np.concatenate([tower.outputs[rank][:, cols] for cols in columns], axis=1)
        if a.shape != b.shape:
            return (rank, -1, -1, float(a.shape[0]), float(b.shape[0]))
        if not np.array_equal(a, b):
            row, col = np.argwhere(a != b)[0]
            return (rank, int(row), int(col), float(a[row, col]), float(b[row, col]))
        del b  # before the next rank's copy is made
    return None


def _byte_table(trace: CommTrace) -> list[str]:
    lines = []
    for label in trace.labels():
        intra, cross = trace.byte_totals(label)
        lines.append(f"step {label}: intra_host={intra} cross_host={cross}")
    return lines


def run_verify(cfg: dict, out_dir: Path, assignment_path: Optional[str] = None) -> int:
    kind = cfg["tm"]["kind"]
    _require(
        kind == PASSTHROUGH,
        "tm.kind",
        f"verify compares uncompressed feature columns, but {kind!r} compresses "
        "each tower's block; use cost for tower modules",
    )
    ctx = RunContext(cfg, assignment_path)
    baseline = ctx.run_baseline()
    tower = ctx.run_tower()
    mismatch = compare_exact(baseline, tower)
    out_dir.mkdir(parents=True, exist_ok=True)
    baseline.trace.save(out_dir / "baseline_trace.log")
    tower.trace.save(out_dir / "trace.log")
    with open(out_dir / "layout.txt", "w", encoding="utf-8") as fh:
        fh.write("# kind\tident\twidth\n")
        for kind, ident, width in tower.layout.blocks:
            fh.write(f"{kind}\t{ident}\t{width}\n")
    lines = [
        f"world={ctx.topo.world_size} hosts={ctx.topo.num_hosts} "
        f"ranks_per_host={ctx.topo.ranks_per_host} towers={ctx.layout.num_towers} "
        f"hosts_per_tower={ctx.layout.hosts_per_tower}",
        "baseline bytes:",
        *(f"  {line}" for line in _byte_table(baseline.trace)),
        "tower bytes:",
        *(f"  {line}" for line in _byte_table(tower.trace)),
    ]
    if mismatch is None:
        lines.insert(0, "result: exact match")
        code = EXIT_OK
    else:
        rank, row, col, a, b = mismatch
        lines.insert(
            0,
            f"result: MISMATCH at rank={rank} row={row} col={col} "
            f"baseline={a!r} tower={b!r}",
        )
        code = EXIT_MISMATCH
    (out_dir / "report.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(lines[0])
    return code


def random_config(rng: np.random.Generator) -> dict:
    """Draw one equivalence-suite configuration.

    Spans world sizes 2..16, 1/2/4 ranks per host, 1-2 hosts per tower,
    2..32 features with mixed hotness, per-table dims, all sharding schemes,
    and every exchange flag combination (driven by the rng).
    """
    while True:
        ranks_per_host = int(rng.choice([1, 2, 4]))
        num_hosts = int(rng.integers(1, 9))
        world = ranks_per_host * num_hosts
        if not 2 <= world <= 16:
            continue
        hosts_per_tower = int(rng.choice([1, 2]))
        if num_hosts % hosts_per_tower:
            continue
        break
    group = ranks_per_host * hosts_per_tower
    num_towers = world // group
    num_features = int(rng.integers(max(2, num_towers), 33))
    overrides = {
        "seed": int(rng.integers(0, 2**31)),
        "topology": {"num_hosts": num_hosts, "ranks_per_host": ranks_per_host},
        "layout": {
            "hosts_per_tower": hosts_per_tower,
            "assignment": str(rng.choice(["contiguous", "strided"])),
        },
        "tables": {
            "count": num_features,
            "rows": int(rng.integers(4, 17)),
            "dim": int(rng.integers(1, 9)),
            "hotness": 1 if rng.random() < 0.5 else [0, 3],
            "sharding": str(rng.choice(SCHEMES)),
            "shards_per_table": int(rng.integers(1, group + 1)),
            "integer_values": True,
        },
        "batch": {"local_size": int(rng.integers(1, 4))},
        "exchange": {name: bool(rng.integers(0, 2)) for name in exchange.SWITCHES},
    }
    return load_config(overrides=overrides)


def equivalence_check(cfg: dict) -> dict:
    """Run both pipelines on one config; returns match + byte accounting facts."""
    ctx = RunContext(cfg)
    baseline = ctx.run_baseline()
    tower = ctx.run_tower()
    mismatch = compare_exact(baseline, tower)
    _, c_cross = baseline.trace.byte_totals("c")
    _, f_cross = tower.trace.byte_totals("f")
    d_intra, d_cross = tower.trace.byte_totals("d")
    multi_row = any(
        len([s for s in ctx.placement.shards_of(f) if s.scheme == ROW_WISE]) > 1
        for f in ctx.batch.features
    )
    return {
        "match": mismatch is None,
        "mismatch": mismatch,
        "step_c_cross": c_cross,
        "step_f_cross": f_cross,
        "step_d_intra": d_intra,
        "step_d_cross": d_cross,
        "bytes_comparable": ctx.layout.hosts_per_tower == 1 and not multi_row,
        "hosts_per_tower": ctx.layout.hosts_per_tower,
        "world": ctx.topo.world_size,
    }


def run_random_sweep(count: int, seed: int) -> tuple[int, int, list[str]]:
    rng = np.random.default_rng(seed)
    matched = 0
    problems = []
    for i in range(count):
        cfg = random_config(rng)
        facts = equivalence_check(cfg)
        if facts["match"]:
            matched += 1
        else:
            problems.append(f"config {i}: mismatch {facts['mismatch']}")
        if facts["bytes_comparable"] and facts["step_c_cross"] != facts["step_f_cross"]:
            problems.append(
                f"config {i}: cross bytes differ c={facts['step_c_cross']} "
                f"f={facts['step_f_cross']}"
            )
    return matched, count, problems


def read_embeddings(path: str) -> np.ndarray:
    """Feature embeddings from CSV (optional header) or raw f32 + sidecar."""
    p = Path(path)
    if not p.exists():
        raise IngestionError(f"{path}: no such file")
    if p.suffix == ".csv":
        rows, linenos = [], []
        with open(p, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                parts = line.split(",")
                try:
                    rows.append([float(x) for x in parts])
                except ValueError:
                    if lineno == 1:
                        continue  # header
                    raise IngestionError(f"{path}:{lineno}: not numeric") from None
                linenos.append(lineno)
        if not rows:
            raise IngestionError(f"{path}: empty")
        width = len(rows[0])
        for lineno, row in zip(linenos, rows):
            if len(row) != width:
                raise IngestionError(f"{path}:{lineno}: {len(row)} columns, expected {width}")
        data = np.array(rows, dtype=np.float64)
        bad = _nonfinite_row(data)
        if bad is not None:
            raise IngestionError(f"{path}:{linenos[bad]}: non-finite value")
        return data
    meta = Path(str(p) + ".meta")
    if not meta.exists():
        raise IngestionError(f"{meta}: sidecar with 'rows cols' is required for raw input")
    try:
        rows, cols = (int(x) for x in meta.read_text().split())
    except ValueError:
        raise IngestionError(f"{meta}: expected two integers 'rows cols'") from None
    data = np.fromfile(p, dtype="<f4")
    if data.size != rows * cols:
        raise IngestionError(
            f"{path}: has {data.size} floats at offset 0, expected {rows * cols}"
        )
    data = data.reshape(rows, cols).astype(np.float64)
    bad = _nonfinite_row(data)
    if bad is not None:
        raise IngestionError(f"{path}: row {bad + 1} has a non-finite value")
    return data


def _nonfinite_row(data: np.ndarray) -> Optional[int]:
    """Index of the first row holding a NaN or an infinity, or None."""
    bad = np.flatnonzero(~np.isfinite(data).all(axis=1))
    return int(bad[0]) if bad.size else None


def write_assignment(path, assignment: partitioner.TowerAssignment) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# feature_id\ttower_id\n")
        for feat, tower in enumerate(assignment.tower_of):
            fh.write(f"{feat}\t{tower}\n")


def read_assignment(path) -> dict[int, int]:
    mapping = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 2:
                raise IngestionError(f"{path}:{lineno}: expected 'feature tower'")
            try:
                mapping[int(parts[0])] = int(parts[1])
            except ValueError:
                raise IngestionError(
                    f"{path}:{lineno}: feature and tower must be integers"
                ) from None
    return mapping


def run_partition(cfg: dict, embeddings_path: str, out_dir: Path) -> int:
    p = cfg["partitioner"]
    steps = _num(p["steps"], "partitioner.steps")
    embed_dims = _num(p["embed_dims"], "partitioner.embed_dims")
    num_towers = _num(p["num_towers"], "partitioner.num_towers")
    balance = _num(p["balance"], "partitioner.balance", float)
    _require(steps >= 1, "partitioner.steps", "must be >= 1")
    _require(embed_dims >= 1, "partitioner.embed_dims", "must be >= 1")
    features = read_embeddings(embeddings_path)
    _require(features.shape[0] >= num_towers, "partitioner.num_towers",
             f"only {features.shape[0]} features for {num_towers} towers")
    if embed_dims >= features.shape[1]:
        print(
            f"warning: embed_dims={embed_dims} not below source dim "
            f"{features.shape[1]}",
            file=sys.stderr,
        )
    affinity = partitioner.affinity_from_embeddings(features)
    dist = partitioner.distance_from_affinity(affinity, p["strategy"])
    seed = _block_seed(cfg, "partitioner", 4)
    embedded = partitioner.mds_embed(dist, n_dims=embed_dims, steps=steps)
    assignment = partitioner.constrained_kmeans(
        embedded.coords, num_towers, balance, seed=seed
    )
    score = partitioner.partition_score(assignment, affinity, p["strategy"])
    out_dir.mkdir(parents=True, exist_ok=True)
    np.savetxt(out_dir / "affinity.csv", affinity, delimiter=",", fmt="%.9g")
    np.savetxt(out_dir / "coords.csv", embedded.coords, delimiter=",", fmt="%.9g")
    write_assignment(out_dir / "assignment.txt", assignment)
    (out_dir / "score.txt").write_text(
        f"strategy={p['strategy']} score={score:.9g} "
        f"final_stress={embedded.final_stress:.9g}\n",
        encoding="utf-8",
    )
    print(
        f"partitioned {features.shape[0]} features into {num_towers} towers; "
        f"sizes={assignment.sizes()} score={score:.6g}"
    )
    return EXIT_OK


def cost_one(cfg: dict) -> dict[str, float]:
    """Cost both pipelines' plans for one config; returns the sweep.csv row.

    The plans give the traces and flops the functional runs would, without
    looking up or moving an embedding.
    """
    ctx = RunContext(cfg)
    params = build_cost_params(cfg)
    base_trace, base_flops = ctx.baseline_plan()
    base_cost = costmodel.pipeline_cost(base_trace, params, flops=base_flops)
    tower_trace, tower_flops = ctx.tower_plan()
    tower_cost = costmodel.pipeline_cost(tower_trace, params, flops=tower_flops)
    report = costmodel.speedup_report(base_cost, tower_cost)
    return {
        "num_hosts": ctx.topo.num_hosts,
        "ranks_per_host": ctx.topo.ranks_per_host,
        "num_towers": ctx.layout.num_towers,
        "compression_ratio": ctx.compression(),
        "baseline_s": report["baseline_s"],
        "tower_s": report["tower_s"],
        "speedup": report["speedup"],
        "stepf_s": tower_cost.per_step.get("f", 0.0),
        "_breakdowns": (base_cost, tower_cost),
    }


def parse_sweep(spec: str) -> tuple[str, list]:
    """KEY=V1,V2,... or KEY=START..END (inclusive integer range)."""
    if "=" not in spec:
        raise ConfigError(f"sweep spec {spec!r} must look like key=values")
    key, _, values = spec.partition("=")
    if ".." in values:
        start, _, end = values.partition("..")
        try:
            lo, hi = int(start), int(end)
        except ValueError:
            raise ConfigError(f"sweep range {values!r} must be integers") from None
        if hi < lo:
            raise ConfigError(f"sweep range {values!r} is empty")
        return key, list(range(lo, hi + 1))
    out = []
    for item in values.split(","):
        try:
            out.append(int(item))
        except ValueError:
            try:
                out.append(float(item))
            except ValueError:
                raise ConfigError(f"sweep value {item!r} is not numeric") from None
    return key, out


def _set_path(cfg: dict, dotted: str, value) -> None:
    parts = dotted.split(".")
    node = cfg
    for part in parts[:-1]:
        if part not in node or not isinstance(node[part], dict):
            raise ConfigError(f"sweep key {dotted!r}: no config block {part!r}")
        node = node[part]
    if parts[-1] not in node:
        raise ConfigError(f"sweep key {dotted!r}: unknown field")
    node[parts[-1]] = value


def run_cost(cfg: dict, sweeps: list[tuple[str, list]], out_dir: Path) -> int:
    combos: list[list[tuple[str, object]]] = [[]]
    for key, values in sweeps:
        combos = [prev + [(key, v)] for prev in combos for v in values]
    combos.sort(key=lambda combo: tuple(v for _, v in combo))
    rows = []
    for combo in combos:
        one = copy.deepcopy(cfg)
        for key, value in combo:
            _set_path(one, key, value)
        row = cost_one(one)
        row["config"] = ";".join(f"{k}={v}" for k, v in combo) or "base"
        rows.append(row)
    out_dir.mkdir(parents=True, exist_ok=True)
    fields = [
        "config", "num_hosts", "ranks_per_host", "num_towers",
        "compression_ratio", "baseline_s", "tower_s", "speedup", "stepf_s",
    ]
    with open(out_dir / "sweep.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields)
        writer.writeheader()
        writer.writerows({k: r[k] for k in fields} for r in rows)
    with open(out_dir / "breakdown.txt", "w", encoding="utf-8") as fh:
        for row in rows:
            base_cost, tower_cost = row["_breakdowns"]
            for name, breakdown in (("baseline", base_cost), ("tower", tower_cost)):
                steps = " ".join(
                    f"{label}={seconds:.9g}"
                    for label, seconds in breakdown.per_step.items()
                )
                fh.write(
                    f"config={row['config']} pipeline={name} {steps} "
                    f"comm={breakdown.exposed_comm:.9g} "
                    f"compute={breakdown.compute:.9g} "
                    f"total={breakdown.total:.9g}\n"
                )
    for row in rows:
        print(
            f"{row['config']}: baseline={row['baseline_s']:.3e}s "
            f"tower={row['tower_s']:.3e}s speedup={row['speedup']:.3f}"
        )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="towersim",
        description="Deterministic tower-transformed embedding exchange simulator",
    )
    parser.add_argument("--config", help="YAML config file")
    parser.add_argument("--seed", type=int, help="override the top-level seed")
    parser.add_argument("--out", help="override output_dir")
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="check tower pipeline against the baseline")
    verify.add_argument("--assignment", help="feature->tower file from 'partition'")
    verify.add_argument(
        "--random-sweep", type=int, metavar="N",
        help="run N randomized configs instead of the config file",
    )

    part = sub.add_parser("partition", help="build towers from feature embeddings")
    part.add_argument("--embeddings", required=True, help="CSV or raw f32 + .meta sidecar")

    cost = sub.add_parser("cost", help="alpha-beta cost sweep over configs")
    cost.add_argument(
        "--sweep", action="append", default=[], metavar="KEY=START..END|KEY=V1,V2",
        help="dotted config key to sweep; repeatable (cartesian product)",
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        overrides: dict = {}
        if args.seed is not None:
            overrides["seed"] = args.seed
        if args.out is not None:
            overrides["output_dir"] = args.out
        cfg = load_config(args.config, overrides)
        out_dir = Path(cfg["output_dir"])
        if args.command == "verify":
            if args.random_sweep is not None:
                seed = _num(cfg["seed"], "seed")
                _require(seed >= 0, "seed", "must be >= 0")
                matched, total, problems = run_random_sweep(args.random_sweep, seed)
                print(f"{matched}/{total} exact")
                for line in problems:
                    print(line, file=sys.stderr)
                return EXIT_OK if matched == total and not problems else EXIT_MISMATCH
            return run_verify(cfg, out_dir, args.assignment)
        if args.command == "partition":
            return run_partition(cfg, args.embeddings, out_dir)
        if args.command == "cost":
            sweeps = [parse_sweep(s) for s in args.sweep]
            return run_cost(cfg, sweeps, out_dir)
        raise ConfigError(f"unknown command {args.command!r}")
    except TowersimError as exc:
        code, prefix = next(
            EXIT_CODES[cls] for cls in type(exc).__mro__ if cls in EXIT_CODES
        )
        print(f"{prefix}: {exc}", file=sys.stderr)
        return code
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except Exception as exc:  # keep the CLI contract: nonzero, named error
        print(f"unexpected error: {exc!r}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
