"""Seeded Monte Carlo event generation from Born-rule distributions, and the
event-log file format.

Events are drawn by inverse-CDF lookup over the POVM's fixed label order
using a Philox counter-based generator, so a (povm, state, seed) triple
always reproduces the identical event sequence, across runs and platforms.
An event log holds its events as one read-only array of indices into its
label set, one byte per event for up to 256 labels; the uniform variates
are drawn LOG_CHUNK at a time, so sampling needs the index array plus one
chunk of working memory (see `sample` for the edge-counting lookup).

This module alone knows the v1 log format that `write_event_log` writes and
`read_event_log` reads, declared once in `_HEADER_KEYS`. A log is UTF-8 text
with "\n" line ends. Line 1 is `# povmbell event log v1`. Lines 2 to 7 are
the header, one `# key=value` line per key, in this order: `config` (an
opaque descriptor), `config_sha256` (the hex sha256 of the config's UTF-8
bytes), `generator`, `seed` (a decimal integer as `str(int)` writes it),
`labels` (the label set, space-separated, in effect order) and `count` (as
`seed`). From line 8 on, each line is one event label. `EventLog` refuses
what this format cannot round-trip: see `_check_label_set` and its own
docstring. When every label line (label plus "\n") has one UTF-8 byte length
w, as in every CLI label set, the body is a (count, w) byte matrix, which the
codec encodes and decodes by table lookups; other label sets, and any body
that decoder refuses, take the line-by-line path, with the same bytes and errors.
"""

from __future__ import annotations

import functools
import hashlib
import os
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO, Sequence

import numpy as np

from .bell import QUAD_LABELS, ChshReport, chsh_report_from_distribution
from .errors import ConfigError, DomainError
from .measurement import OutcomeDistribution, Povm, _label_tuple, born_probabilities
from .qcore import ArrayRecord, StateDescriptor, _as_array, _of_type, _trusted

__all__ = [
    "GENERATOR_NAME",
    "LOG_CHUNK",
    "EventLog",
    "write_event_log",
    "read_event_log",
    "sample",
    "empirical_frequencies",
    "empirical_chsh",
]

GENERATOR_NAME = "philox"
_MAX_SEED = 2**64 - 1

# Events per chunk of drawing, counting, writing and reading. Philox draws in
# chunks continue one stream, so chunking never changes a log's events; the
# chunk bounds working memory (here about 0.6 MB of float64 variates and one
# boolean edge test) independently of the event count.
LOG_CHUNK = 1 << 16


def _require_utf8(what: str, text: str) -> None:
    """Raise DomainError if `text` does not encode as UTF-8, as all text of a log must."""
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        raise DomainError(f"{what} {text!r} does not encode as UTF-8") from None


def _check_label_set(label_set: Sequence[str]) -> tuple[str, ...]:
    """Return `label_set` as a tuple, or raise DomainError if the v1 log format
    cannot round-trip it.

    The format stores the labels space-separated on one header line and one
    event label per line, and only header lines start with '#', so the labels
    must be nonempty, unique, free of whitespace, encodable as UTF-8 and must
    not start with '#'; the set must hold at least one label. A set whose
    labels are all exactly `str` is checked once and remembered: only there
    does equality of two sets mean equal label text, as (1,), (1.0,) and
    (True,) are equal tuples.
    """
    labels = _label_tuple(label_set)
    if all(type(label) is str for label in labels):
        return _checked_str_labels(labels)
    return _checked_labels(labels)


def _checked_labels(labels: tuple) -> tuple:
    if not labels:
        raise DomainError("an event log needs at least one label")
    for label in labels:
        if not isinstance(label, str) or not label:
            raise DomainError(f"event labels must be nonempty strings, got {label!r}")
        if label.split() != [label]:  # str.split() splits at every char.isspace()
            raise DomainError(f"event label {label!r} contains whitespace")
        if label.startswith("#"):
            raise DomainError(f"event label {label!r} starts with '#'")
        _require_utf8("event label", label)
    if len(set(labels)) != len(labels):
        raise DomainError(f"event labels must be unique, got {list(labels)}")
    return labels


# a label set of exact strings the format can hold, checked once (a refused set raises again)
_checked_str_labels = functools.lru_cache(maxsize=64)(_checked_labels)


def _index_dtype(n_labels: int) -> np.dtype:
    """Smallest unsigned integer dtype that indexes `n_labels` labels (uint8 up to 256)."""
    return np.min_scalar_type(max(n_labels - 1, 0))


def _log_fields(config: str, generator: str, seed: int, label_set: Sequence[str], indices: object) -> dict:
    """The fields of an EventLog by name, checked; the indices as an array, not copied.

    Raises DomainError for a seed that is not an integer (Python or numpy,
    not bool), for a label set the log format cannot round-trip (see
    `_check_label_set`), for a `config` or `generator` that is no one-line
    UTF-8 string without trailing whitespace, or for indices that are not a
    1-D integer array of positions in the label set (so labels given in
    place of indices); ShapeMismatchError for ragged indices.
    """
    # the header stores the seed as a decimal integer, which reads back as int
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)):
        raise DomainError(f"event log seed must be an integer, got {seed!r}")
    label_set = _check_label_set(label_set)
    for name, text in (("config", config), ("generator", generator)):
        # one header line each; refusing trailing whitespace makes the reader
        # refuse a line that an editor or a "\r\n" conversion appended it to
        if not isinstance(text, str) or "\n" in text or text != text.rstrip():
            raise DomainError(f"event log {name} must be a line of text without trailing whitespace, got {text!r}")
        _require_utf8(f"event log {name}", text)
    array = _as_array(indices, None, "event indices")
    if array.ndim != 1 or (array.size and array.dtype.kind not in "iu"):
        raise DomainError(f"event indices must be a 1-D integer array, got {array.dtype} {array.shape}")
    if array.size and not 0 <= array.min() <= array.max() < len(label_set):
        raise DomainError(f"event indices must lie in [0, {len(label_set)})")
    return {"config": config, "generator": generator, "seed": int(seed), "label_set": label_set, "indices": array}


@dataclass(frozen=True, eq=False)
class EventLog(ArrayRecord):
    """An ordered record of sampled outcomes plus the settings behind it.

    `config` is an opaque descriptor of the experiment that produced the log
    (the CLI stores canonical config JSON there); `label_set` is the POVM's
    full outcome alphabet in effect order, which may include labels that
    never occurred. The events are held as `indices`, a read-only array of
    positions in `label_set` with dtype `_index_dtype(len(label_set))`. The
    constructor checks its fields by `_log_fields` and copies the caller's
    index array; `sample` and `read_event_log` run the same check and keep
    the array they made. `events` derives the tuple of labels from it.
    """

    config: str
    generator: str
    seed: int
    label_set: tuple[str, ...]
    indices: np.ndarray

    def __post_init__(self) -> None:
        fields = _log_fields(self.config, self.generator, self.seed, self.label_set, self.indices)
        dtype = _index_dtype(len(fields["label_set"]))
        fields["indices"] = _as_array(fields["indices"], dtype, "event indices", frozen=True)
        self.__dict__.update(fields)

    @property
    def count(self) -> int:
        return int(self.indices.shape[0])

    @property
    def events(self) -> tuple[str, ...]:
        """The events as labels (builds one Python reference per event)."""
        return tuple(map(self.label_set.__getitem__, self.indices.tolist()))


_LOG_VERSION_LINE = "# povmbell event log v1\n"
# The header keys in the order write_event_log writes them, one `# key=value`
# line each after the version line; read_event_log reads exactly these lines.
_HEADER_KEYS = ("config", "config_sha256", "generator", "seed", "labels", "count")


def _file_path(path: object) -> str | os.PathLike:
    """`path` itself if it is a str or os.PathLike file name; DomainError for
    anything else (an int would open a file descriptor) and for a name the
    system cannot take (a NUL, or text the file system encoding refuses),
    which `open` would refuse with a ValueError."""
    try:
        if isinstance(path, (str, os.PathLike)) and b"\0" not in os.fsencode(path):
            return path
    except UnicodeEncodeError:
        pass
    raise DomainError(f"path must be a file name, got {path!r}")


def _config_sha256(config: str) -> str:
    """The hex sha256 of a config's UTF-8 bytes, as a log header stores it."""
    return hashlib.sha256(config.encode("utf-8")).hexdigest()


def write_event_log(log: EventLog, path: str | Path) -> None:
    """Write an event log: the version line, the header, one label per line.

    The header is written once, then the events LOG_CHUNK at a time, each
    chunk as one take of rows from the label-line table of `_encode_plan`,
    written as it is if the table is an `S{w}` array, else joined.
    A `log` that is no EventLog, or a `path` that is no file name, raises DomainError.
    """
    sha = _config_sha256(_of_type(log, EventLog, "log").config)
    labels, table = _encode_plan(log.label_set)
    values = (log.config, sha, log.generator, log.seed, labels, log.count)
    header = "".join(f"# {key}={value}\n" for key, value in zip(_HEADER_KEYS, values))
    with open(_file_path(path), "wb") as fh:
        fh.write((_LOG_VERSION_LINE + header).encode("utf-8"))
        for start in range(0, log.count, LOG_CHUNK):
            rows = table.take(log.indices[start : start + LOG_CHUNK])
            fh.write(b"".join(rows.tolist()) if table.dtype == object else rows)


@functools.lru_cache(maxsize=16)
def _encode_plan(label_set: tuple[str, ...]) -> tuple[str, np.ndarray]:
    """The `labels` header value of a label set and the table of its label lines (each
    label's UTF-8 bytes and "\n", in label order) that `write_event_log` takes rows from:
    an `S{w}` array if every line is w bytes long, else an object array. Made once per
    label set, whose labels `EventLog` has checked to be strings; the table is read-only."""
    lines = [label.encode("utf-8") + b"\n" for label in label_set]
    widths = {len(line) for line in lines}
    table = np.array(lines, dtype=f"S{widths.pop()}" if len(widths) == 1 else object)
    table.setflags(write=False)
    return " ".join(label_set), table


def _header_int(header: dict[str, str], key: str) -> int:
    value = header[key]
    try:
        number = int(value)
    except ValueError:
        number = None
    # only the text the writer makes: int() also takes "1_0", " 5", "-0" and non-ASCII digits
    if number is None or str(number) != value:
        raise ConfigError("log", f"header field {key!r} must be an integer, got {value!r}")
    return number


def _read_header(fh: BinaryIO) -> dict[str, str]:
    """The header values of an open log by key: the version line, then one
    `# key=value` line per key of _HEADER_KEYS in order, each value verbatim."""
    version = fh.readline()
    if version != _LOG_VERSION_LINE.encode():
        raise ConfigError(
            "log", f"first line must be {_LOG_VERSION_LINE!r}, got {version.decode('utf-8', 'replace')!r}"
        )
    header = {}
    for number, key in enumerate(_HEADER_KEYS, start=2):
        try:
            line = fh.readline().decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ConfigError("log", f"event log header is not UTF-8 text: {exc}") from None
        prefix = f"# {key}="
        if not (line.startswith(prefix) and line.endswith("\n")):
            raise ConfigError(
                "log", f"line {number} must be {prefix!r}, its value and a line break, got {line!r}"
            )
        header[key] = line[len(prefix) : -1]
    return header


@functools.lru_cache(maxsize=16)
def _decode_plan(lines: tuple[bytes, ...]) -> tuple | None:
    """The table lookups that decode a body of w-byte label `lines`: the columns that are
    one byte in every line, as (column, byte); each other column and its 256-entry table
    from a byte to its digit, or one more digit for "not in this column"; and the table
    of label indices by the digits' mixed-radix code (-1: no label). None if the code
    table would exceed LOG_CHUNK. Made once per label set; its arrays are read-only."""
    code_dtype = np.min_scalar_type(LOG_CHUNK - 1)  # every code is below LOG_CHUNK
    fixed, varying, codes, size = [], [], [0] * len(lines), 1
    for column, column_bytes in enumerate(zip(*lines)):
        present = sorted(set(column_bytes))
        if len(present) == 1:
            fixed.append((column, present[0]))
            continue
        stride, size = size, size * (len(present) + 1)
        if size > LOG_CHUNK:
            return None
        digits = {byte: digit * stride for digit, byte in enumerate(present)}
        codes = [code + digits[byte] for code, byte in zip(codes, column_bytes)]
        lut = np.full(256, len(present) * stride, dtype=code_dtype)
        lut[present] = list(digits.values())
        lut.setflags(write=False)
        varying.append((column, lut))
    table = np.full(size, -1, dtype=np.min_scalar_type(-len(lines)))
    table[codes] = np.arange(len(lines))
    table.setflags(write=False)
    return tuple(fixed), tuple(varying), table


def _read_fixed_width(fh: BinaryIO, lines: tuple[bytes, ...], indices: np.ndarray) -> bool:
    """Fill `indices` from a body of len(indices) rows of w-byte label lines,
    LOG_CHUNK rows at a time, by the lookups of `_decode_plan`. A column that is
    one byte in every label line (the line break, say) must hold that byte; each
    other column maps through its table to a digit, and the digits' code indexes
    the table of label indices. Returns False, `indices` partly filled, if the
    code table would exceed LOG_CHUNK or a row is no label line."""
    plan = _decode_plan(lines)
    if plan is None:
        return False
    fixed, varying, table = plan
    width = len(lines[0])
    code_dtype = np.min_scalar_type(LOG_CHUNK - 1)
    for start in range(0, len(indices), LOG_CHUNK):
        rows = min(LOG_CHUNK, len(indices) - start)
        block = fh.read(rows * width)
        if len(block) != rows * width:  # the file changed after its size was taken
            return False
        matrix = np.frombuffer(block, dtype=np.uint8).reshape(rows, width)
        if not all((matrix[:, column] == byte).all() for column, byte in fixed):
            return False
        code = np.zeros(rows, dtype=code_dtype)
        for column, lut in varying:
            code += lut.take(matrix[:, column])
        chunk = table.take(code)
        if chunk.min() < 0:
            return False
        indices[start : start + rows] = chunk
    return True


def read_event_log(path: str | Path) -> EventLog:
    """Parse a file written by write_event_log back into an EventLog.

    The file must hold the version line, then the six header lines of the
    module docstring, each `# key=value` with its key in order and ended by
    a line break; every later line is one event label, ended by a line
    break. The events fill an index array preallocated from the header count.
    If every label line is w bytes and the body count * w, `_read_fixed_width`
    decodes it; otherwise, or if it refuses, the body is read from its start
    in blocks of about LOG_CHUNK lines, split and mapped to label indices. A
    file this function accepts is what `write_event_log` writes of its log.

    Raises ConfigError (field "log") for a file that is not a v1 event log:
    a wrong first line; a header line that is not UTF-8, or is not the next
    key's `# key=` followed by a value and a line break; a seed or count
    other than an integer as `str(int)` writes it; a negative count; a
    stored config_sha256 that does not match its config; a count the body
    is too short to hold; a body line that is not a label of the set,
    including a '#' line; a last line without a line break; a number of
    events other than the count; or header values `EventLog` refuses, such
    as a label set the format cannot hold. Messages do not depend on the path.
    A `path` that is no file name raises DomainError (see `_file_path`).
    """
    with open(_file_path(path), "rb") as fh:
        header = _read_header(fh)
        sha = _config_sha256(header["config"])
        if header["config_sha256"] != sha:
            raise ConfigError(
                "log", f"stored config_sha256 {header['config_sha256']} does not match the config ({sha})"
            )
        seed = _header_int(header, "seed")
        count = _header_int(header, "count")
        if count < 0:
            raise ConfigError("log", f"header count must be nonnegative, got {count}")
        labels = header["labels"].split(" ")
        lines = tuple(label.encode("utf-8") + b"\n" for label in labels)
        position = {line[:-1]: i for i, line in enumerate(lines)}
        # every event takes at least its shortest label plus a line break
        shortest = min(map(len, lines))
        body_start = fh.tell()
        body_bytes = os.fstat(fh.fileno()).st_size - body_start
        if count * shortest > body_bytes:
            raise ConfigError(
                "log", f"header count {count} needs at least {count * shortest} bytes of events, "
                f"the file holds {body_bytes}"
            )
        dtype = _index_dtype(len(labels))
        indices = np.empty(count, dtype=dtype)
        filled = 0
        fixed_width = count * shortest == body_bytes and all(len(line) == shortest for line in lines)
        if fixed_width and _read_fixed_width(fh, lines, indices):
            filled = count  # and the body is read to its end
        else:
            fh.seek(body_start)
        block = fh.read(LOG_CHUNK * shortest)
        while block:
            if not block.endswith(b"\n"):
                block += fh.readline()
            events = block.split(b"\n")
            if events.pop():  # the piece after the last line break must be empty
                raise ConfigError("log", "the last event line has no line break: the log is cut short")
            try:
                chunk = np.fromiter(map(position.__getitem__, events), dtype=dtype, count=len(events))
            except KeyError as exc:
                line = exc.args[0]
                where = f"event line {filled + events.index(line) + 1}"
                text = line.decode("utf-8", "replace")
                if line.startswith(b"#"):
                    raise ConfigError("log", f"{where} is a header line {text!r}") from None
                raise ConfigError("log", f"{where} {text!r} is not a label of the set") from None
            del events  # one block's line objects alive at a time, not two
            if filled + len(chunk) > count:
                raise ConfigError("log", f"header count {count} is less than the number of events")
            indices[filled : filled + len(chunk)] = chunk
            filled += len(chunk)
            block = fh.read(LOG_CHUNK * shortest)
    if filled != count:
        raise ConfigError("log", f"header count {count} does not match {filled} events")
    indices.setflags(write=False)
    try:
        return _trusted(EventLog, **_log_fields(header["config"], header["generator"], seed, labels, indices))
    except DomainError as exc:
        raise ConfigError("log", f"event log header: {exc}") from None


def sample(
    povm: Povm,
    state: StateDescriptor,
    n: int,
    seed: int,
    *,
    config_descriptor: str = "",
    distribution: OutcomeDistribution | None = None,
) -> EventLog:
    """Draw `n` outcomes of `povm` in `state`.

    Sampling inverts the cumulative distribution over the POVM's label order:
    Philox variates (seeded by `seed`, a 64-bit unsigned integer) are drawn
    LOG_CHUNK at a time into one buffer, and a variate u's index is the count
    of inner cdf edges (all but the last) it reaches, one `u >= edge` test per
    edge added into the index array: `np.searchsorted(cdf, u, side="right")`,
    as u < 1. A chunk takes 9 bytes an event of working memory. n = 0 yields
    an empty log. A caller holding the Born distribution of `povm` in `state`
    passes it as `distribution`, with the POVM's labels in the POVM's order.
    Its constructor has checked that it is finite and sums to one within
    tolerance; a probability below zero, which that tolerance lets through,
    is refused here (DomainError), as a cdf that falls has no inverse.
    """
    _of_type(povm, Povm, "povm")
    _of_type(config_descriptor, str, "config descriptor")
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool) or n < 0:
        raise DomainError(f"event count must be a nonnegative integer, got {n!r}")
    if not isinstance(seed, (int, np.integer)) or isinstance(seed, bool) or not 0 <= seed <= _MAX_SEED:
        raise DomainError(f"seed must be an integer in [0, 2^64), got {seed!r}")

    if distribution is None:
        distribution = born_probabilities(state, povm)
    elif _of_type(distribution, OutcomeDistribution, "distribution").labels != povm.labels:
        raise DomainError(
            f"distribution labels {distribution.labels} differ from the POVM's {povm.labels}"
        )
    labels, probs = distribution.labels, distribution.probs
    cdf = np.cumsum(probs)
    if not np.isfinite(cdf[-1]):
        raise DomainError(f"outcome probabilities must be finite, got {probs.tolist()}")
    if probs.min() < 0:  # a cdf that falls has no inverse
        raise DomainError(f"outcome probabilities must be nonnegative, got {probs.tolist()}")
    rng = np.random.Generator(np.random.Philox(int(seed)))
    n = int(n)
    indices = np.zeros(n, dtype=_index_dtype(len(labels)))
    variates = np.empty(min(n, LOG_CHUNK))  # refilled by each chunk, never two alive
    for start in range(0, n, LOG_CHUNK):
        part = indices[start : start + LOG_CHUNK]
        u = rng.random(out=variates[: len(part)])
        for edge in cdf[:-1].tolist():
            part += u >= edge
    descriptor = config_descriptor or f"povm(dim={povm.dim},labels={','.join(labels)})"
    indices.setflags(write=False)
    return _trusted(EventLog, **_log_fields(descriptor, GENERATOR_NAME, seed, labels, indices))


def empirical_frequencies(log: EventLog) -> dict[str, float]:
    """Relative frequency of every label in the log's alphabet (0 when absent)."""
    n = _of_type(log, EventLog, "log").count
    if n == 0:
        return {label: 0.0 for label in log.label_set}
    counts = np.zeros(len(log.label_set), dtype=np.int64)
    # bincount casts its input to intp (8 bytes an event), so count by chunks
    for start in range(0, n, LOG_CHUNK):
        counts += np.bincount(log.indices[start : start + LOG_CHUNK], minlength=len(counts))
    return {label: count / n for label, count in zip(log.label_set, counts.tolist())}


def empirical_chsh(log: EventLog) -> ChshReport:
    """CHSH statistics estimated from one quadrivariate event log.

    Every event carries all four detector signs at once, so a single log
    determines all four correlations; the single-run bound |s| <= 2 therefore
    holds for the estimate up to sampling noise.
    """
    if set(_of_type(log, EventLog, "log").label_set) != set(QUAD_LABELS):
        raise DomainError("event log does not carry quadrivariate outcome labels")
    if log.count == 0:
        raise DomainError("cannot estimate correlations from an empty event log")
    freqs = empirical_frequencies(log)
    dist = OutcomeDistribution.from_values(QUAD_LABELS, [freqs[label] for label in QUAD_LABELS])
    return chsh_report_from_distribution(dist)
