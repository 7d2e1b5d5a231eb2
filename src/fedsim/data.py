"""Dataset generation, CSV ingestion, and client partitioning.

A partition is a tuple of sorted example-index arrays, one per client id.
Both partitioners guarantee the same two invariants: the index lists are
pairwise disjoint and cover the dataset exactly, and every client holds
floor(n/N) or ceil(n/N) examples.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, StructuralError
from .models import Batch, make_batch
from .params import finite_checked
from .schema import check


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

    def to_batch(self) -> Batch:
        return make_batch(self.features, self.labels)


@finite_checked
def synthetic_split(seed: int, clusters: int, train_per_class: int, test_per_class: int,
                    input_dim: int, spread: float) -> tuple[Dataset, Dataset]:
    """Gaussian-mixture classification data, one mixture mean per class,
    as a (train, test) pair.

    Class means are standard normal draws; each class's examples are one
    draw of ``train_per_class + test_per_class`` rows that scatter around
    its mean with standard deviation ``spread``, which may not be so large
    that a feature overflows. The first ``train_per_class`` rows of each
    draw are training examples and the rest test examples, so the two sets
    never overlap. Deterministic under ``seed``; rows are grouped by class.
    """
    if min(clusters, train_per_class, input_dim) < 1 or test_per_class < 0 or spread < 0:
        raise StructuralError("synthetic generation parameters must be positive")
    per_class = train_per_class + test_per_class
    rng = np.random.default_rng(seed)
    means = rng.normal(size=(clusters, input_dim))
    train = np.empty((clusters, train_per_class, input_dim))
    test = np.empty((clusters, test_per_class, input_dim))
    for c in range(clusters):
        block = means[c] + spread * rng.normal(size=(per_class, input_dim))
        train[c], test[c] = block[:train_per_class], block[train_per_class:]
    if not (np.isfinite(train).all() and np.isfinite(test).all()):
        raise ConfigError(f"data.spread {spread!r} overflows the synthetic features")
    labels = np.arange(clusters, dtype=np.int64)
    return tuple(Dataset(x.reshape(-1, input_dim), labels.repeat(x.shape[1]), clusters)
                 for x in (train, test))


def generate_synthetic(seed: int, clusters: int, per_class: int, input_dim: int,
                       spread: float) -> Dataset:
    """The one set of :func:`synthetic_split` with ``per_class`` training
    examples of each class and no test examples."""
    return synthetic_split(seed, clusters, per_class, 0, input_dim, spread)[0]


@finite_checked
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
        # decoded whole, so that a decode error's offset is the file's
        try:
            reader = csv.reader(io.StringIO(fh.read(), newline=""))
        except UnicodeDecodeError as exc:
            raise ConfigError(f"not UTF-8 text: byte {exc.start} does not decode",
                              path=path) from None
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
        finite = np.isfinite(mean) & np.isfinite(std)
        if not finite.all():
            column = feature_names[int(np.argmin(finite))]
            raise ConfigError(f"feature column {column!r} is too large to normalize: "
                              "its mean or standard deviation overflows", path=path)
        std[std == 0.0] = 1.0
        features = (features - mean) / std
        meta["feature_mean"] = mean.tolist()
        meta["feature_std"] = std.tolist()
    return Dataset(features, labels, len(label_names), meta)


def partition_iid(dataset: Dataset, N: int, seed: int) -> tuple:
    """Random permutation dealt into N near-equal contiguous chunks."""
    if N < 1 or N > dataset.n:
        raise StructuralError(f"need 1 <= N <= {dataset.n}, got {N}")
    perm = np.random.default_rng(seed).permutation(dataset.n)
    return tuple(np.sort(c) for c in np.array_split(perm, N))


def partition_dirichlet(dataset: Dataset, N: int, concentration: float,
                        seed: int) -> tuple:
    """Label-skewed split: per-client class ratios drawn from a symmetric
    Dirichlet, examples dealt per class proportionally to the ratio
    columns, then rebalanced to the equal-size invariant.

    Rebalancing is one shed-then-deal pass. Each donor (largest surplus
    first, lowest id on ties) sheds its surplus one example at a time from
    its most-populous class (lowest class on ties), last dealt example
    first; the shed examples are then dealt, in that order, to the
    receivers (largest deficit first, lowest id on ties), each taking a
    contiguous run. A donor's shedding depends on its own examples alone,
    so every donor can shed before any receiver is dealt to.
    """
    if N < 1 or N > dataset.n:
        raise StructuralError(f"need 1 <= N <= {dataset.n}, got {N}")
    check("partition.concentration", concentration)
    rng = np.random.default_rng(seed)
    C = dataset.class_count
    ratios = rng.dirichlet(np.full(C, concentration), size=N)

    # Each class's shuffled examples are dealt to the clients in id order,
    # so a client's examples are its runs of each class, in class order.
    dealt, owners = [], []
    for c in range(C):
        idx = np.flatnonzero(dataset.labels == c)
        if idx.size == 0:
            continue
        dealt.append(idx[rng.permutation(idx.size)])
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
        owners.append(np.repeat(np.arange(N), counts))
    dealt, owners = np.concatenate(dealt), np.concatenate(owners)
    by_client = dealt[np.argsort(owners, kind="stable")]
    sizes = np.bincount(owners, minlength=N).tolist()
    starts = [0, *itertools.accumulate(sizes)]
    owner = np.empty(dataset.n, dtype=np.int64)
    owner[dealt] = owners
    labels = dataset.labels.tolist()

    lo = dataset.n // N
    # the n % N largest shards keep the ceil size; everyone else gets floor
    by_size = sorted(range(N), key=lambda i: (-sizes[i], i))
    targets = [lo] * N
    for i in by_size[:dataset.n - lo * N]:
        targets[i] += 1
    donors = sorted((i for i in range(N) if sizes[i] > targets[i]),
                    key=lambda i: (targets[i] - sizes[i], i))
    receivers = sorted((i for i in range(N) if sizes[i] < targets[i]),
                       key=lambda i: (sizes[i] - targets[i], i))
    # Each donor sheds runs of its currently most-populous class, dealt
    # into one receiver at a time, so receivers stay nearly as label-skewed
    # as organic shards.
    shed = []
    for d in donors:
        lists = [[] for _ in range(C)]
        for ix in by_client[starts[d]:starts[d + 1]].tolist():
            lists[labels[ix]].append(ix)
        for _ in range(sizes[d] - targets[d]):
            shed.append(max(lists, key=len).pop())
    owner[shed] = np.repeat(receivers, [targets[r] - sizes[r] for r in receivers])
    # every client's examples in index order, one slice each
    by_owner = np.argsort(owner, kind="stable")
    ends = list(itertools.accumulate(targets))
    return tuple(by_owner[a:b] for a, b in zip([0, *ends[:-1]], ends))


def split_stratified(dataset: Dataset, test_fraction: float,
                     seed: int) -> tuple[Dataset, Dataset]:
    """Seeded train/test split keeping per-class proportions: round
    (test_fraction * class size) examples of every class go to the test
    set. Returns (train, test)."""
    check("data.test_fraction", test_fraction)
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

