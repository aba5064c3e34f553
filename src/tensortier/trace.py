"""Workload traces: tensors, kernels, and their serialized form.

A trace describes exactly one training iteration; multi-iteration behavior
comes from replaying it. Kernels execute serially in index order.
"""

from __future__ import annotations

import enum
import json
import random
from dataclasses import dataclass, field
from typing import NamedTuple


class TraceError(ValueError):
    """Base class for trace validation failures."""


class MalformedInputError(TraceError):
    """Bad JSON, missing field, or wrong type."""


class DanglingTensorRefError(TraceError):
    """A kernel references an unknown tensor id."""


class NonPositiveValueError(TraceError):
    """A size or duration that must be positive is not."""


class DuplicateIdError(TraceError):
    """Two tensors share an id."""


class InvalidParamsError(TraceError):
    """Synthesis parameters outside their domain."""


class TensorKind(enum.Enum):
    GLOBAL = "global"
    INTERMEDIATE = "intermediate"
    UNSPECIFIED = None


class TensorDescriptor(NamedTuple):
    id: int
    size_bytes: int
    kind: TensorKind = TensorKind.UNSPECIFIED


class KernelRecord(NamedTuple):
    index: int
    name: str
    duration_us: int
    inputs: frozenset[int]
    outputs: frozenset[int]

    def tensors(self):
        return self.inputs | self.outputs


@dataclass(frozen=True)
class WorkloadTrace:
    tensors: dict[int, TensorDescriptor]
    kernels: tuple[KernelRecord, ...]
    metadata: dict[str, str] = field(default_factory=dict)

    def total_us(self):
        return sum(k.duration_us for k in self.kernels)


def _as_int(obj, what):
    # bool is an int subclass; reject it explicitly
    if not isinstance(obj, int) or isinstance(obj, bool):
        raise MalformedInputError(f"{what} must be an integer, got {obj!r}")
    return obj


_KINDS = {kind.value: kind for kind in TensorKind}


# parse_trace calls these for an entry it refused, and every JSON value it
# refuses has a fault: each raises the first, in message order
def _reject_tensor(entry):
    if not isinstance(entry, dict):
        raise MalformedInputError("tensor entry must be an object")
    for key in ("id", "size_bytes", "kind"):
        if key not in entry:
            raise MalformedInputError(f"tensor missing field {key!r}")
    tid = _as_int(entry["id"], "tensor id")
    if _as_int(entry["size_bytes"], "size_bytes") <= 0:
        raise NonPositiveValueError(f"tensor {tid}: size_bytes must be > 0")
    if entry["kind"] not in ("global", "intermediate", None):
        raise MalformedInputError(f"tensor {tid}: bad kind {entry['kind']!r}")
    raise DuplicateIdError(f"duplicate tensor id {tid}")


def _reject_kernel(pos, entry, tensors):
    if not isinstance(entry, dict):
        raise MalformedInputError("kernel entry must be an object")
    for key in ("index", "name", "duration_us", "inputs", "outputs"):
        if key not in entry:
            raise MalformedInputError(f"kernel missing field {key!r}")
    idx = _as_int(entry["index"], "kernel index")
    if idx != pos:
        raise MalformedInputError(
            f"kernel indices must be contiguous from 0 "
            f"(position {pos} has index {idx})")
    if not isinstance(entry["name"], str):
        raise MalformedInputError("kernel name must be a string")
    if _as_int(entry["duration_us"], "duration_us") <= 0:
        raise NonPositiveValueError(f"kernel {idx}: duration_us must be > 0")
    for key in ("inputs", "outputs"):
        ids = entry[key]
        if not isinstance(ids, list):
            raise MalformedInputError(f"{key} must be a list")
        # every ref is type-checked before any is looked up
        for t in ids:
            _as_int(t, "tensor ref")
        for t in ids:
            if t not in tensors:
                raise DanglingTensorRefError(
                    f"kernel {idx} references unknown tensor {t}")
    raise MalformedInputError(f"kernel {idx} touches no tensors")


def parse_trace(raw) -> WorkloadTrace:
    """Parse a UTF-8 JSON byte stream (or str) into a validated trace.

    Each entry is checked whole on a happy path; _reject_tensor and
    _reject_kernel name the first fault of one it refuses.
    """
    try:
        if isinstance(raw, bytes):
            raw = raw.decode("utf-8")
        doc = json.loads(raw)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise MalformedInputError(f"not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise MalformedInputError("top level must be an object")
    for key in ("tensors", "kernels"):
        if key not in doc:
            raise MalformedInputError(f"missing field {key!r}")
        if not isinstance(doc[key], list):
            raise MalformedInputError(f"{key!r} must be a list")

    tensors: dict[int, TensorDescriptor] = {}
    for entry in doc["tensors"]:
        try:
            tid, size = entry["id"], entry["size_bytes"]
            kind = _KINDS[entry["kind"]]
        except (KeyError, TypeError):
            tid = None
        # JSON numbers parse as exactly int or float, and bool is apart
        if (tid.__class__ is not int or size.__class__ is not int
                or size <= 0 or tid in tensors):
            _reject_tensor(entry)
        tensors[tid] = TensorDescriptor(tid, size, kind)

    kernels = []
    for pos, entry in enumerate(doc["kernels"]):
        try:
            idx, name, dur = entry["index"], entry["name"], entry["duration_us"]
            inputs, outputs = entry["inputs"], entry["outputs"]
            refs = inputs + outputs
        except (KeyError, TypeError):
            idx = None
        if not (idx.__class__ is int and idx == pos and name.__class__ is str
                and dur.__class__ is int and dur > 0
                and refs.__class__ is list and refs):
            _reject_kernel(pos, entry, tensors)
        for t in refs:
            if t.__class__ is not int or t not in tensors:
                _reject_kernel(pos, entry, tensors)
        kernels.append(KernelRecord(idx, name, dur, frozenset(inputs),
                                    frozenset(outputs)))

    metadata = doc.get("metadata", {})
    if not isinstance(metadata, dict):
        raise MalformedInputError("metadata must be an object")
    meta = {str(k): str(v) for k, v in metadata.items()}
    return WorkloadTrace(tensors=tensors, kernels=tuple(kernels), metadata=meta)


def serialize_trace(trace: WorkloadTrace) -> str:
    """Canonical JSON text; parse(serialize(t)) == t byte-for-byte stable."""
    doc = {
        "tensors": [
            {"id": t.id, "size_bytes": t.size_bytes, "kind": t.kind.value}
            for t in sorted(trace.tensors.values(), key=lambda t: t.id)
        ],
        "kernels": [
            {
                "index": k.index,
                "name": k.name,
                "duration_us": k.duration_us,
                "inputs": sorted(k.inputs),
                "outputs": sorted(k.outputs),
            }
            for k in trace.kernels
        ],
        "metadata": {k: trace.metadata[k] for k in sorted(trace.metadata)},
    }
    return json.dumps(doc, indent=2) + "\n"


def _draw(dist, rng, what):
    """Draw one positive int from a constant or (lo, hi) uniform spec."""
    if isinstance(dist, int) and not isinstance(dist, bool):
        value = dist
    elif (isinstance(dist, tuple) and len(dist) == 2
          and all(isinstance(v, int) for v in dist)):
        lo, hi = dist
        if lo > hi:
            raise InvalidParamsError(f"{what}: empty range {dist}")
        value = rng.randint(lo, hi)
    else:
        raise InvalidParamsError(f"{what}: expected int or (lo, hi) tuple, got {dist!r}")
    if value <= 0:
        raise InvalidParamsError(f"{what}: values must be positive, got {value}")
    return value


def synthesize_trace(layers, act_size, weight_size, dur, seed=0) -> WorkloadTrace:
    """Deterministic training-style trace: forward then backward kernels.

    Forward kernel i reads W_i (and A_{i-1} for i > 0) and writes A_i;
    backward kernel 2*layers-1-i reads W_i and A_i and writes the weight
    gradient. Weights are global, activations and gradients intermediate.
    Size and duration specs are ints or (lo, hi) uniform ranges.
    """
    if not isinstance(layers, int) or layers <= 0:
        raise InvalidParamsError(f"layers must be a positive int, got {layers!r}")
    rng = random.Random(seed)

    # ids: weights, then activations, then gradients, each in layer order
    w_id = lambda i: i
    a_id = lambda i: layers + i
    g_id = lambda i: 2 * layers + i

    tensors = {}
    for i in range(layers):
        tensors[w_id(i)] = TensorDescriptor(
            w_id(i), _draw(weight_size, rng, "weight_size"), TensorKind.GLOBAL)
    for i in range(layers):
        tensors[a_id(i)] = TensorDescriptor(
            a_id(i), _draw(act_size, rng, "act_size"), TensorKind.INTERMEDIATE)
    for i in range(layers):
        # weight gradients mirror their weight's shape
        tensors[g_id(i)] = TensorDescriptor(
            g_id(i), tensors[w_id(i)].size_bytes, TensorKind.INTERMEDIATE)

    kernels = []
    for i in range(layers):
        inputs = {w_id(i)} if i == 0 else {w_id(i), a_id(i - 1)}
        kernels.append(KernelRecord(i, f"fwd_{i}", _draw(dur, rng, "dur"),
                                    frozenset(inputs), frozenset({a_id(i)})))
    for k in range(layers, 2 * layers):
        i = 2 * layers - 1 - k
        kernels.append(KernelRecord(k, f"bwd_{i}", _draw(dur, rng, "dur"),
                                    frozenset({w_id(i), a_id(i)}),
                                    frozenset({g_id(i)})))

    meta = {"generator": "synthetic", "layers": str(layers), "seed": str(seed)}
    return WorkloadTrace(tensors=tensors, kernels=tuple(kernels), metadata=meta)
