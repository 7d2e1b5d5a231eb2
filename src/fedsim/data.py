"""Dataset generation, CSV ingestion, and client partitioning.

Partitions map example indices to clients. Both partitioners guarantee the
same two invariants: the index lists are pairwise disjoint and cover the
dataset exactly, and every client holds floor(n/N) or ceil(n/N) examples.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, StructuralError
from .models import Batch, make_batch


@dataclass(frozen=True)
class Dataset:
    features: np.ndarray
    labels: np.ndarray
    class_count: int
    meta: dict = field(default_factory=dict, compare=False)

    @property
    def n(self) -> int:
        return self.features.shape[0]

    def subset(self, indices) -> "Dataset":
        idx = np.asarray(indices, dtype=np.int64)
        return Dataset(self.features[idx], self.labels[idx], self.class_count)

    def to_batch(self, indices=None) -> Batch:
        if indices is None:
            return make_batch(self.features, self.labels)
        return make_batch(self.features[indices], self.labels[indices])


@dataclass(frozen=True)
class Partition:
    assignments: tuple
    client_count: int


def generate_synthetic(seed: int, clusters: int, per_class: int, input_dim: int,
                       spread: float) -> Dataset:
    """Gaussian-mixture classification data, one mixture mean per class.

    Class means are standard normal draws; examples scatter around their
    mean with standard deviation ``spread``. Deterministic under ``seed``;
    rows are grouped by class.
    """
    if min(clusters, per_class, input_dim) < 1 or spread < 0:
        raise StructuralError("synthetic generation parameters must be positive")
    rng = np.random.default_rng(seed)
    means = rng.normal(size=(clusters, input_dim))
    features = np.concatenate(
        [means[c] + spread * rng.normal(size=(per_class, input_dim))
         for c in range(clusters)])
    labels = np.repeat(np.arange(clusters, dtype=np.int64), per_class)
    return Dataset(features, labels, clusters)


def load_csv(path: str, label_column: str, normalize: bool = True) -> Dataset:
    """Load a comma-separated file with a header row into a Dataset.

    Labels are re-indexed densely from 0 in order of first appearance; the
    mapping and the normalization statistics land in ``Dataset.meta``.
    Features are z-scored with full-dataset statistics (constant columns
    keep scale 1) unless ``normalize`` is False.
    """
    try:
        fh = open(path, newline="", encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot open data file: {exc}", path=path) from None
    with fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ConfigError("empty file: a header row is required", path=path,
                              line=1) from None
        header = [h.strip() for h in header]
        if label_column not in header:
            raise ConfigError(f"label column {label_column!r} not in header {header}",
                              path=path, line=1)
        label_pos = header.index(label_column)
        feature_names = [h for i, h in enumerate(header) if i != label_pos]
        rows, raw_labels = [], []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise ConfigError(
                    f"expected {len(header)} fields, found {len(row)}",
                    path=path, line=lineno)
            feats = []
            for i, cell in enumerate(row):
                if i == label_pos:
                    continue
                try:
                    value = float(cell)
                except ValueError:
                    raise ConfigError(
                        f"non-numeric feature value {cell.strip()!r} in column "
                        f"{header[i]!r}", path=path, line=lineno) from None
                if not math.isfinite(value):
                    raise ConfigError(
                        f"non-finite feature value {cell.strip()!r} in column "
                        f"{header[i]!r}", path=path, line=lineno, column=i + 1)
                feats.append(value)
            rows.append(feats)
            raw_labels.append(row[label_pos].strip())
    if not rows:
        raise ConfigError("no data rows after the header", path=path, line=1)

    label_names = list(dict.fromkeys(raw_labels))
    index = {name: i for i, name in enumerate(label_names)}
    labels = np.array([index[v] for v in raw_labels], dtype=np.int64)
    features = np.array(rows, dtype=np.float64)
    meta = {"label_names": label_names, "feature_names": feature_names,
            "normalized": bool(normalize)}
    if normalize:
        mean = features.mean(axis=0)
        std = features.std(axis=0)
        std[std == 0.0] = 1.0
        features = (features - mean) / std
        meta["feature_mean"] = mean.tolist()
        meta["feature_std"] = std.tolist()
    return Dataset(features, labels, len(label_names), meta)


def _finish(parts: list[list[int]], N: int) -> Partition:
    return Partition(tuple(np.array(sorted(p), dtype=np.int64) for p in parts), N)


def partition_iid(dataset: Dataset, N: int, seed: int) -> Partition:
    """Random permutation dealt into N near-equal contiguous chunks."""
    if N < 1 or N > dataset.n:
        raise StructuralError(f"need 1 <= N <= {dataset.n}, got {N}")
    perm = np.random.default_rng(seed).permutation(dataset.n)
    return _finish([c.tolist() for c in np.array_split(perm, N)], N)


def partition_dirichlet(dataset: Dataset, N: int, concentration: float,
                        seed: int) -> Partition:
    """Label-skewed split: per-client class ratios drawn from a symmetric
    Dirichlet, examples dealt per class proportionally to the ratio
    columns, then greedily rebalanced to the equal-size invariant.

    Rebalancing moves one example at a time from the largest client
    (taking from its most-populous class) to the smallest, which preserves
    the skew direction while enforcing floor/ceil sizes.
    """
    if N < 1 or N > dataset.n:
        raise StructuralError(f"need 1 <= N <= {dataset.n}, got {N}")
    if concentration <= 0:
        raise StructuralError("concentration must be positive")
    rng = np.random.default_rng(seed)
    C = dataset.class_count
    ratios = rng.dirichlet(np.full(C, concentration), size=N)

    parts: list[list[int]] = [[] for _ in range(N)]
    for c in range(C):
        idx = np.flatnonzero(dataset.labels == c)
        if idx.size == 0:
            continue
        idx = idx[rng.permutation(idx.size)]
        col = ratios[:, c].copy()
        total = col.sum()
        if total <= 0.0:
            col[:] = 1.0
            total = float(N)
        quota = col / total * idx.size
        counts = np.floor(quota).astype(np.int64)
        # largest remainders get the leftover examples; ties to low client id
        leftovers = idx.size - int(counts.sum())
        order = np.lexsort((np.arange(N), -(quota - counts)))
        counts[order[:leftovers]] += 1
        pos = 0
        for i in range(N):
            parts[i].extend(idx[pos:pos + counts[i]].tolist())
            pos += counts[i]

    lo = dataset.n // N
    sizes = [len(p) for p in parts]
    # the n % N largest shards keep the ceil size; everyone else gets floor
    by_size = sorted(range(N), key=lambda i: (-sizes[i], i))
    targets = [lo] * N
    for i in by_size[:dataset.n - lo * N]:
        targets[i] += 1
    donors = sorted((i for i in range(N) if sizes[i] > targets[i]),
                    key=lambda i: (targets[i] - sizes[i], i))
    receivers = sorted((i for i in range(N) if sizes[i] < targets[i]),
                       key=lambda i: (sizes[i] - targets[i], i))
    # Each donor sheds contiguous runs of its currently most-populous class
    # into one receiver at a time, so receivers stay nearly as label-skewed
    # as organic shards.
    donor_lists: dict[int, list[list[int]]] = {}
    di = 0
    for rec in receivers:
        while sizes[rec] < targets[rec]:
            d = donors[di]
            if sizes[d] <= targets[d]:
                di += 1
                continue
            if d not in donor_lists:
                lists = [[] for _ in range(C)]
                for ix in parts[d]:
                    lists[int(dataset.labels[ix])].append(ix)
                donor_lists[d] = lists
            lists = donor_lists[d]
            donor_class = max(range(C), key=lambda c: (len(lists[c]), -c))
            parts[rec].append(lists[donor_class].pop())
            sizes[d] -= 1
            sizes[rec] += 1
    for d, lists in donor_lists.items():
        parts[d] = [ix for sub in lists for ix in sub]
    return _finish(parts, N)


def split_stratified(dataset: Dataset, test_fraction: float,
                     seed: int) -> tuple[Dataset, Dataset]:
    """Seeded train/test split keeping per-class proportions: round
    (test_fraction * class size) examples of every class go to the test
    set. Returns (train, test)."""
    if not 0 < test_fraction < 1:
        raise StructuralError("test_fraction must lie in (0, 1)")
    rng = np.random.default_rng(seed)
    train, test = [], []
    for c in range(dataset.class_count):
        idx = np.flatnonzero(dataset.labels == c)
        idx = idx[rng.permutation(idx.size)]
        k = int(math.floor(test_fraction * idx.size + 0.5))
        test.extend(idx[:k].tolist())
        train.extend(idx[k:].tolist())
    if not train or not test:
        raise StructuralError("split produced an empty train or test set")
    return dataset.subset(sorted(train)), dataset.subset(sorted(test))


def take_per_class(dataset: Dataset, count_per_class: int) -> tuple[Dataset, Dataset]:
    """Split off the first ``count_per_class`` examples of every class into
    the first dataset; the remainder forms the second. Positional, so a
    single random generation can be split without a second rng."""
    first, second = [], []
    taken = np.zeros(dataset.class_count, dtype=np.int64)
    for i, c in enumerate(dataset.labels):
        if taken[c] < count_per_class:
            first.append(i)
            taken[c] += 1
        else:
            second.append(i)
    if not second:
        raise StructuralError("count_per_class consumed the entire dataset")
    return dataset.subset(first), dataset.subset(second)
