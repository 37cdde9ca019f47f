"""Command-line entry point: verify, partition, and cost sweeps.

One YAML config file describes a run (topology, layout, tables, batch,
exchange options, tower module, partitioner, cost parameters); a handful of
flags override the top-level keys. Everything is deterministic given the
config, so re-running a command rewrites its outputs byte for byte.

Exit codes: 0 success, 2 config validation, 3 equivalence mismatch,
4 numeric failure, 5 I/O or ingestion failure, 1 anything else. Each
package error class states its own (errors.py).
"""

from __future__ import annotations

import argparse
import copy
import csv
import functools
import sys
import warnings
from pathlib import Path
from typing import Iterable, Optional, Sequence

import numpy as np
import yaml

from . import costmodel, exchange, partitioner, towermod
from .embedding import (
    POOL_NONE,
    ROW_WISE,
    SCHEMES,
    TABLE_SIZES,
    TABLE_WISE,
    TablePlan,
    init_table_deterministic,
    make_batch,
    shard_tables,
)
from .errors import (  # the EXIT_* codes are the CLI's, re-exported here
    EXIT_CONFIG,
    EXIT_ERROR,
    EXIT_IO,
    EXIT_MISMATCH,
    EXIT_NUMERIC,
    EXIT_OK,
    ConfigError,
    DomainError,
    IngestionError,
    TowersimError,
    check_minimums,
)
from .simnet import CommTrace
from .topology import ClusterTopology, TowerLayout
from .towermod import TMConfig


def _defaults(cls, names: Iterable[str], **derived) -> dict:
    """A config block: dataclass ``cls``'s own defaults for ``names``, then ``derived``."""
    return {name: getattr(cls, name) for name in names} | derived


# exchange and cost take their defaults from the dataclasses they fill, tm its
# sizes. A None efficiency ({world: factor}) is derived when the run is built.
PASSTHROUGH = "passthrough"  # the tm.kind that runs no tower module
ASSIGNMENTS = ("contiguous", "strided", "explicit")
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
    },
    "batch": {"local_size": 2},
    "exchange": _defaults(exchange.ExchangeOptions, exchange.SWITCHES),
    "tm": _defaults(TMConfig, towermod.SIZES, kind=PASSTHROUGH),
    "partitioner": {
        "strategy": "coherent",
        "num_towers": 2,
        "balance": 1.0,
        "embed_dims": 2,
        "steps": 5000,  # SMACOF iteration cap
    },
    "cost": _defaults(costmodel.CostParams, costmodel.RATES, efficiency=None),
}


# The bound of each field that no class owns: a minimum, or a tuple of
# the values it may take. ClusterTopology, EmbeddingTable (rows, dim),
# TablePlan (shards_per_table), TMConfig and CostParams state the others.
RULES = {
    "seed": 0,
    "layout.hosts_per_tower": 1,
    "layout.assignment": ASSIGNMENTS,
    "tables.count": 1,
    "tables.sharding": SCHEMES,
    "batch.local_size": 1,
    "partitioner.strategy": partitioner.STRATEGIES,
    "partitioner.num_towers": 1,
    "partitioner.balance": 1,
    "partitioner.embed_dims": 1,
    "partitioner.steps": 1,
}


def _require(condition: bool, field: str, message: str) -> None:
    if not condition:
        raise ConfigError(f"{field}: {message}")


_TYPE_NAMES = {bool: "true or false", int: "an integer", float: "a number", str: "a string"}


def _num(value, field: str, kind=int):
    """``value`` as a ``kind`` of _TYPE_NAMES, or a ConfigError naming the
    dotted ``field``. A bool or str field takes only its own type, and a
    bool is no number; an int must be whole and a float finite."""
    if kind in (bool, str) or type(value) is bool:
        if type(value) is not kind:
            raise ConfigError(f"{field}: {value!r} is not {_TYPE_NAMES[kind]}")
        return value
    if kind is int and isinstance(value, float) and not value.is_integer():
        raise ConfigError(f"{field}: {value!r} is not an integer")
    try:
        number = kind(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{field}: {value!r} is not a number") from None
    if kind is float and not np.isfinite(number):
        raise ConfigError(f"{field}: {number!r} is not a finite number")
    return number


def _merge(base: dict, override: dict, path: str = "", default=DEFAULT_CONFIG) -> dict:
    """``base`` with ``override``'s values; a value whose ``default`` in
    DEFAULT_CONFIG is a bool, int, float or str takes that type through _num.
    tables.hotness (1 or [lo, hi]) and the values under a None default
    (layout.explicit, cost.efficiency) are checked where they are built."""
    out = copy.deepcopy(base)
    for key, value in override.items():
        where = f"{path}.{key}" if path else key
        if key not in out:
            raise ConfigError(f"unknown config key {where!r}")
        typed = default.get(key) if isinstance(default, dict) else None
        if isinstance(out[key], dict):
            if not isinstance(value, dict):
                raise ConfigError(f"{where}: must be a mapping")
            out[key] = _merge(out[key], value, where, typed)
        elif type(typed) in _TYPE_NAMES and where != "tables.hotness":
            out[key] = _num(value, where, type(typed))
        else:
            out[key] = value
    return out


class _UniqueKeyLoader(yaml.SafeLoader):
    """yaml.SafeLoader, except that a mapping key given twice is a
    ConfigError naming the file, the line and the key: safe_load would keep
    the last value and drop the others unread."""

    def construct_mapping(self, node, deep=False):
        own = [key for key, _ in node.value if key.tag != "tag:yaml.org,2002:merge"]
        mapping = super().construct_mapping(node, deep)  # rejects an unhashable key
        seen = set()
        for key_node in own:
            key = self.construct_object(key_node)
            if key in seen:
                mark = key_node.start_mark
                raise ConfigError(f"{mark.name}:{mark.line + 1}: key {key!r} given twice")
            seen.add(key)
        return mapping


def load_config(path: Optional[str] = None, overrides: Optional[dict] = None) -> dict:
    cfg = copy.deepcopy(DEFAULT_CONFIG)
    if path is not None:
        with open(path, "r", encoding="utf-8") as fh:
            loaded = yaml.load(fh, Loader=_UniqueKeyLoader) or {}
        if not isinstance(loaded, dict):
            raise ConfigError(f"{path}: top level must be a mapping")
        cfg = _merge(cfg, loaded)
    if overrides:
        cfg = _merge(cfg, overrides)
    check_config(cfg)
    return cfg


def check_config(cfg: dict) -> tuple:
    """The topology, hotness, tower modules, cost parameters, tower layout
    and feature -> tower assignment of ``cfg``, built once every field of
    every block meets its bound, whichever command runs. A DomainError that
    a dataclass raises while its block is built leads with the field's name,
    and becomes a ConfigError naming ``<block>.<field>``. The bounds that
    span blocks are checked here too: the towers tile the topology, and the
    layout.assignment mode gives each of tables.count features a known tower."""
    for path, rule in RULES.items():
        block, _, name = path.rpartition(".")
        value = (cfg[block] if block else cfg)[name]
        if isinstance(rule, tuple):
            _require(value in rule, path, f"must be one of {rule}")
        else:
            _require(value >= rule, path, f"must be >= {rule}")
    layout = cfg["layout"]
    _require(layout["explicit"] is None or layout["assignment"] == "explicit",
             "layout.explicit", f"is read only under layout.assignment 'explicit', "
             f"not {layout['assignment']!r}")
    built = []
    for block, build in (
        ("topology", build_topology), ("tables", check_tables),
        ("tm", build_tm), ("cost", build_cost_params),
    ):
        try:
            built.append(build(cfg))
        except DomainError as exc:
            raise ConfigError(f"{block}.{exc}") from None
    topo, group = built[0], built[0].ranks_per_host * layout["hosts_per_tower"]
    _require(topo.world_size % group == 0, "layout.hosts_per_tower",
             f"world size {topo.world_size} not divisible by "
             f"ranks_per_host*hosts_per_tower={group}")
    tower_layout = TowerLayout(topo.world_size // group, layout["hosts_per_tower"])
    return (*built, tower_layout, build_assignment(cfg, tower_layout, cfg["tables"]["count"]))


def _block_seed(cfg: dict, salt: int) -> int:
    """One block's seed, derived from the run's ``seed`` and the block's ``salt``."""
    return (cfg["seed"] * 1_000_003 + salt) % (2**63)


def build_topology(cfg: dict) -> ClusterTopology:
    return ClusterTopology(**cfg["topology"])


def check_tables(cfg: dict) -> object:
    """The tables block's bounds, without building a table; returns
    tables.hotness as make_batch takes it: 1, or an inclusive (lo, hi)."""
    t = cfg["tables"]
    check_minimums(t, TABLE_SIZES)
    TablePlan(t["sharding"], t["shards_per_table"]).pieces(t["rows"], t["dim"])
    hot = t["hotness"]
    if isinstance(hot, (list, tuple)):
        _require(len(hot) == 2, "tables.hotness", "need [lo, hi]")
        lo, hi = (_num(h, "tables.hotness") for h in hot)
        _require(0 <= lo <= hi, "tables.hotness", "need [lo, hi]")
        return lo, hi
    _require(_num(hot, "tables.hotness") == 1, "tables.hotness",
             "scalar hotness must be 1 (single-hot)")
    return 1


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
    explicit = cfg["layout"]["explicit"]
    _require(
        isinstance(explicit, list) and len(explicit) == num_features,
        "layout.explicit",
        f"need a list of {num_features} tower ids",
    )
    mapping = {f: _num(t, "layout.explicit") for f, t in enumerate(explicit)}
    return _known_towers(mapping, towers, "layout.explicit")


def build_tm(cfg: dict) -> Optional[TMConfig]:
    t = cfg["tm"]
    if t["kind"] == PASSTHROUGH:
        check_minimums(t, towermod.SIZES)  # unread, but a bad size is still an error
        return None
    return TMConfig(seed=_block_seed(cfg, 3), **t)


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
    return costmodel.CostParams(**(c | {"efficiency": efficiency}))


class RunContext:
    """Everything one exchange run needs, built from a config dict."""

    def __init__(self, cfg: dict, assignment_path: Optional[str] = None):
        t = cfg["tables"]
        topo, hotness, tm, self.params, self.layout, assignment = check_config(cfg)
        if assignment_path is not None:
            assignment = build_assignment(cfg, self.layout, t["count"], assignment_path)
        self.topo = topo
        seed = _block_seed(cfg, 1)
        tables = {
            tid: init_table_deterministic(tid, t["rows"], t["dim"], seed, t["integer_values"])
            for tid in range(t["count"])
        }
        plan = {
            tid: TablePlan(t["sharding"], t["shards_per_table"], tower)
            for tid, tower in assignment.items()
        }
        self.placement = shard_tables(tables, plan, topo, self.layout)
        self.batch = make_batch(
            topo, tables, cfg["batch"]["local_size"], dict.fromkeys(tables, hotness),
            _block_seed(cfg, 2),
        )
        self.options = exchange.ExchangeOptions(tower_modules=tm, **cfg["exchange"])

    def run_tower(self, consume: Optional[exchange.Consumer] = None) -> exchange.ExchangeResult:
        return exchange.tower_exchange(
            self.batch, self.placement, self.layout, self.topo, self.options, consume
        )

    @functools.cached_property
    def planned_tower(self) -> exchange.ExchangeResult:
        """The tower plan: layout, trace and flops, made once for cost and
        compression."""
        return exchange.tower_plan(
            self.batch, self.placement, self.layout, self.topo, self.options
        )

    def compression(self) -> float:
        """The tower modules' savings factor: the features' table widths over
        the widths of the tower plan's output blocks, which it prices at step f."""
        width = sum(width for _, _, width in self.planned_tower.blocks)
        tables = self.placement.tables
        (in_dim,) = {table.dim for table in tables.values()}  # all tables.dim wide
        return towermod.compression_ratio([width], [len(tables)], in_dim)


def _reference_feature(ctx: RunContext, rank: int, feat: int) -> np.ndarray:
    """Rank ``rank``'s bags of ``feat`` pooled over the unsharded table: a
    gather, or a bag-order sum from zero per distinct row range, these summed
    as the tower run sums row shards: each owner's in row order, then by rank."""
    values, bags = ctx.placement.tables[feat].values, ctx.batch.rank_bags(rank, feat)
    if ctx.batch.pooling[feat] == POOL_NONE:
        return values[bags.values]
    owner = {s.row_range: s.rank for s in ctx.placement.shards_of(feat)}
    spans = sorted(owner)  # the distinct row ranges, which tile the table, in row order
    span_of = np.searchsorted([lo for lo, _ in spans], bags.values, "right") - 1
    partials = np.zeros((len(spans), len(bags), values.shape[1]))
    for k in range(int(bags.lengths.max(initial=0))):  # one vectorised += per bag position
        bag = np.flatnonzero(bags.lengths > k)
        at = bags.offsets[bag] + k
        partials[span_of[at], bag] += values[bags.values[at]]
    sums: dict[int, np.ndarray] = {}
    for i in sorted(range(len(spans)), key=lambda i: owner[spans[i]]):  # stable: row order
        sums[owner[spans[i]]] = sums.get(owner[spans[i]], 0) + partials[i]
    return functools.reduce(np.add, sums.values())


def compare_exact(
    ctx: RunContext, outputs: dict[int, np.ndarray], blocks: Sequence[tuple[str, int, int]]
) -> Optional[tuple[int, int, int, float, float]]:
    """First (rank, row, col, reference, result) where ``outputs``, whose
    columns ``blocks`` lay out, differ from the reference, in (rank, block,
    row, column) order, or None; a block of another shape is reported at
    row -1 with both element counts. The reference is what the flat pipeline
    gives by definition, built a block at a time from table values, batch
    and shard ranges, never the pipelines' lookup: features'
    _reference_feature, or a tower module over them, one forward per rank."""
    tm = ctx.options.tower_modules
    weights = functools.cache(lambda t, n, dim: towermod.init_tm_weights(tm, n, dim, salt=t))
    towers = exchange.tower_features(ctx.batch, ctx.placement, ctx.layout, ctx.topo)
    for rank in sorted(outputs):
        col = 0
        for kind, ident, width in blocks:
            if kind == "feature":
                a = _reference_feature(ctx, rank, ident)
            else:
                feats = towers[ident]
                embs = (np.stack([_reference_feature(ctx, rank, f) for f in feats], axis=1)
                        if feats else np.zeros((ctx.batch.local_batch, 0, 1)))
                a = towermod.tm_forward(embs, tm, weights(ident, len(feats), embs.shape[2]))
            b = outputs[rank][:, col:col + width]
            if a.shape != b.shape:
                return (rank, -1, col, float(a.size), float(b.size))
            if not np.array_equal(a, b):
                row, c = np.argwhere(a != b)[0]
                return (rank, int(row), col + int(c), float(a[row, c]), float(b[row, c]))
            col += width
    return None


def checked_tower_run(
    ctx: RunContext,
) -> tuple[exchange.ExchangeResult, Optional[tuple[int, int, int, float, float]]]:
    """The tower run, without outputs, and its first mismatch as compare_exact
    reports it over the whole run. Each tower's columns are compared as step
    f delivers them and then dropped, so the run holds one tower at a time.
    The towers arrive in column order, so a rank's first mismatch is the
    first one found for it."""
    first = None

    def check(col, blocks, chunks):
        nonlocal first
        found = compare_exact(ctx, chunks, blocks)
        if found is not None and (first is None or found[0] < first[0]):
            rank, row, c, a, b = found
            first = (rank, row, col + c, a, b)

    tower = ctx.run_tower(check)
    return tower, first


def _byte_table(trace: CommTrace) -> list[str]:
    lines = []
    for label in trace.labels():
        intra, cross = trace.byte_totals(label)
        lines.append(f"step {label}: intra_host={intra} cross_host={cross}")
    return lines


def run_verify(cfg: dict, out_dir: Path, assignment_path: Optional[str] = None) -> int:
    ctx = RunContext(cfg, assignment_path)
    tower, mismatch = checked_tower_run(ctx)
    baseline = exchange.baseline_plan(ctx.batch, ctx.placement, ctx.topo)
    out_dir.mkdir(parents=True, exist_ok=True)
    baseline.trace.save(out_dir / "baseline_trace.log")
    tower.trace.save(out_dir / "trace.log")
    with open(out_dir / "layout.txt", "w", encoding="utf-8") as fh:
        fh.write("# kind\tident\twidth\n")
        for kind, ident, width in tower.blocks:
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
    2..32 features of one drawn rows x dim with mixed hotness, all sharding
    schemes, and every exchange flag combination (driven by the rng). The
    shard count is drawn up to the tower width, then capped at what the
    table splits into, and is 1 under table_wise.
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
    t = overrides["tables"]  # the draw, capped at what this table and scheme take
    t["shards_per_table"] = min(
        t["shards_per_table"], TablePlan(t["sharding"]).max_shards(t["rows"], t["dim"]))
    return load_config(overrides=overrides)


def equivalence_check(cfg: dict) -> dict:
    """Check one config's tower run against the reference; returns match + byte facts."""
    ctx = RunContext(cfg)
    tower, mismatch = checked_tower_run(ctx)
    _, c_cross = exchange.baseline_plan(ctx.batch, ctx.placement, ctx.topo).trace.byte_totals("c")
    _, f_cross = tower.trace.byte_totals("f")
    _, d_cross = tower.trace.byte_totals("d")
    multi_row = any(
        len([s for s in ctx.placement.shards_of(f) if s.scheme == ROW_WISE]) > 1
        for f in ctx.batch.features
    )
    return {
        "match": mismatch is None,
        "mismatch": mismatch,
        "step_c_cross": c_cross,
        "step_f_cross": f_cross,
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
    """Feature embeddings from CSV (optional header: a first line with no
    number) or raw f32 + sidecar; a row with a NaN or an infinity, or of zero
    norm, is an IngestionError naming the file and line (raw input: row)."""
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
                    if lineno == 1 and not any(map(_is_number, parts)):
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
        bad = _bad_row(data)
        if bad is not None:
            what = "zero norm" if np.isfinite(data[bad]).all() else "non-finite value"
            raise IngestionError(f"{path}:{linenos[bad]}: {what}")
        return data
    meta = Path(str(p) + ".meta")
    if not meta.exists():
        raise IngestionError(f"{meta}: sidecar with 'rows cols' is required for raw input")
    try:
        rows, cols = (int(x) for x in meta.read_text().split())
    except ValueError:
        raise IngestionError(f"{meta}: expected two integers 'rows cols'") from None
    if rows < 1 or cols < 1:
        raise IngestionError(f"{meta}: rows and cols must be >= 1, not {rows} {cols}")
    size = p.stat().st_size
    if size != 4 * rows * cols:
        raise IngestionError(f"{path}: has {size} bytes, expected {rows * cols} floats of 4 bytes")
    data = np.fromfile(p, dtype="<f4").reshape(rows, cols).astype(np.float64)
    bad = _bad_row(data)
    if bad is not None:
        what = "zero norm" if np.isfinite(data[bad]).all() else "a non-finite value"
        raise IngestionError(f"{path}: row {bad + 1} has {what}")
    return data


def _is_number(field: str) -> bool:
    try:
        float(field)
    except ValueError:
        return False
    return True


def _bad_row(data: np.ndarray) -> Optional[int]:
    """Index of the first row holding a NaN or an infinity, or of only zeros
    (a zero norm, which the partitioner cannot normalise), or None."""
    bad = np.flatnonzero(~np.isfinite(data).all(axis=1) | ~data.any(axis=1))
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
                feature, tower = map(int, parts)
            except ValueError:
                raise IngestionError(
                    f"{path}:{lineno}: feature and tower must be integers"
                ) from None
            if feature in mapping:
                raise IngestionError(f"{path}:{lineno}: feature {feature} listed twice")
            mapping[feature] = tower
    return mapping


def run_partition(cfg: dict, embeddings_path: str, out_dir: Path) -> int:
    p = cfg["partitioner"]
    num_towers, embed_dims = p["num_towers"], p["embed_dims"]
    features = read_embeddings(embeddings_path)
    if features.shape[0] < 2:
        raise IngestionError(f"{embeddings_path}: one feature; partition needs at least 2")
    _require(features.shape[0] >= num_towers, "partitioner.num_towers",
             f"only {features.shape[0]} features for {num_towers} towers")
    if embed_dims >= features.shape[1]:
        warnings.warn(f"embed_dims={embed_dims} not below source dim {features.shape[1]}")
    affinity = partitioner.affinity_from_embeddings(features)
    dist = partitioner.distance_from_affinity(affinity, p["strategy"])
    embedded = partitioner.mds_embed(dist, n_dims=embed_dims, steps=p["steps"])
    assignment = partitioner.constrained_kmeans(
        embedded.coords, num_towers, p["balance"], seed=_block_seed(cfg, 4)
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
    base = exchange.baseline_plan(ctx.batch, ctx.placement, ctx.topo)
    base_cost = costmodel.pipeline_cost(base.trace, ctx.params, flops=base.flops)
    tower = ctx.planned_tower
    tower_cost = costmodel.pipeline_cost(tower.trace, ctx.params, flops=tower.flops)
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
    """KEY=V1,V2,... or KEY=START..END (inclusive integer range); each V is
    true, false or a number."""
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
        if item in ("true", "false"):
            out.append(item == "true")
            continue
        try:
            out.append(int(item))
        except ValueError:
            try:
                out.append(float(item))
            except ValueError:
                raise ConfigError(f"sweep value {item!r} is not true, false or a number") from None
    return key, out


def _override(key: str, value) -> dict:
    """The nested mapping that sets dotted ``key`` to ``value``."""
    for part in reversed(key.split(".")):
        value = {part: value}
    return value


def run_cost(cfg: dict, sweeps: list[tuple[str, list]], out_dir: Path) -> int:
    swept = [key for key, _ in sweeps]
    for key, values in sweeps:
        _require(swept.count(key) == 1, key, "given to --sweep more than once")
        typed: dict = {}  # each value as _merge types it -> the value as given
        for value in values:
            leaf = functools.reduce(dict.get, key.split("."), _merge(cfg, _override(key, value)))
            _require(leaf not in typed, key, f"{value!r} repeats {typed.get(leaf)!r} in --sweep")
            typed[leaf] = value
    combos: list[list[tuple[str, object]]] = [[]]
    for key, values in sweeps:
        combos = [prev + [(key, v)] for prev in combos for v in values]
    combos.sort(key=lambda combo: tuple(v for _, v in combo))
    rows = []
    for combo in combos:
        one = cfg
        for key, value in combo:
            one = _merge(one, _override(key, value))
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

    verify = sub.add_parser("verify", help="check the tower pipeline against a reference")
    source = verify.add_mutually_exclusive_group()
    source.add_argument("--assignment", help="feature->tower file from 'partition'")
    source.add_argument(
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
    with warnings.catch_warnings():
        # A library warning prints in the CLI's own form; entering the block
        # forgets the warnings an earlier command in this process printed.
        warnings.showwarning = lambda message, *_: print(f"warning: {message}", file=sys.stderr)
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
                    _require(args.random_sweep >= 1, "--random-sweep", "must be >= 1")
                    matched, total, problems = run_random_sweep(args.random_sweep, cfg["seed"])
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
            print(f"{exc.prefix}: {exc}", file=sys.stderr)
            return exc.exit_code
        except OSError as exc:
            print(f"i/o error: {exc}", file=sys.stderr)
            return EXIT_IO
        except MemoryError:
            print(f"error: out of memory while running {args.command}", file=sys.stderr)
            return EXIT_ERROR
        except Exception as exc:  # keep the CLI contract: nonzero, named error
            print(f"unexpected error: {exc!r}", file=sys.stderr)
            return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
