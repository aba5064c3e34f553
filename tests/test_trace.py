import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tensortier.trace import (DanglingTensorRefError, DuplicateIdError,
                              InvalidParamsError, MalformedInputError,
                              NonPositiveValueError, TensorKind,
                              parse_trace, serialize_trace, synthesize_trace)


def _doc():
    return {
        "tensors": [
            {"id": 0, "size_bytes": 1024, "kind": "global"},
            {"id": 1, "size_bytes": 2048, "kind": None},
        ],
        "kernels": [
            {"index": 0, "name": "k0", "duration_us": 10,
             "inputs": [0], "outputs": [1]},
        ],
    }


def test_parse_minimal():
    trace = parse_trace(json.dumps(_doc()))
    assert trace.tensors[0].kind is TensorKind.GLOBAL
    assert trace.tensors[1].kind is TensorKind.UNSPECIFIED
    assert trace.kernels[0].tensors() == {0, 1}
    assert trace.total_us() == 10


def test_parse_accepts_bytes():
    trace = parse_trace(json.dumps(_doc()).encode())
    assert len(trace.tensors) == 2


def test_round_trip_is_stable(s1r_trace):
    text = serialize_trace(s1r_trace)
    again = parse_trace(text)
    assert again == s1r_trace
    assert serialize_trace(again) == text


# (mutation, error type, message); test ids come from the first two
_REJECTS = [
    (lambda d: d["tensors"][0].pop("kind"), MalformedInputError,
     "tensor missing field 'kind'"),
    (lambda d: d["tensors"][0].update(kind="weight"), MalformedInputError,
     "tensor 0: bad kind 'weight'"),
    (lambda d: d["tensors"][0].update(size_bytes=0), NonPositiveValueError,
     "tensor 0: size_bytes must be > 0"),
    (lambda d: d["tensors"][0].update(size_bytes=True), MalformedInputError,
     "size_bytes must be an integer, got True"),
    (lambda d: d["tensors"].append(dict(d["tensors"][0])), DuplicateIdError,
     "duplicate tensor id 0"),
    (lambda d: d["kernels"][0].update(inputs=[7]), DanglingTensorRefError,
     "kernel 0 references unknown tensor 7"),
    (lambda d: d["kernels"][0].update(duration_us=-1), NonPositiveValueError,
     "kernel 0: duration_us must be > 0"),
    (lambda d: d["kernels"][0].update(index=3), MalformedInputError,
     "kernel indices must be contiguous from 0 (position 0 has index 3)"),
    (lambda d: d["kernels"][0].update(inputs=[], outputs=[]),
     MalformedInputError, "kernel 0 touches no tensors"),
    (lambda d: d.pop("kernels"), MalformedInputError,
     "missing field 'kernels'"),
    (lambda d: d["kernels"][0].update(inputs=["3"]), MalformedInputError,
     "tensor ref must be an integer, got '3'"),
    # every ref is type-checked before any is looked up
    (lambda d: d["kernels"][0].update(inputs=[7, "3"]), MalformedInputError,
     "tensor ref must be an integer, got '3'"),
    (lambda d: d["tensors"][0].update(id=True), MalformedInputError,
     "tensor id must be an integer, got True"),
    (lambda d: d["kernels"][0].update(inputs=0), MalformedInputError,
     "inputs must be a list"),
    (lambda d: d["tensors"].__setitem__(0, [0, 1024]), MalformedInputError,
     "tensor entry must be an object"),
    (lambda d: d["kernels"][0].pop("duration_us"), MalformedInputError,
     "kernel missing field 'duration_us'"),
]
# messages recorded before the checks stopped formatting them up front
_MESSAGES = {mutate: message for mutate, _, message in _REJECTS}


@pytest.mark.parametrize("mutate,err", [case[:2] for case in _REJECTS])
def test_parse_rejects(mutate, err):
    doc = _doc()
    mutate(doc)
    with pytest.raises(err) as info:
        parse_trace(json.dumps(doc))
    assert type(info.value) is err
    assert str(info.value) == _MESSAGES[mutate]


def test_parse_rejects_garbage():
    with pytest.raises(MalformedInputError):
        parse_trace(b"not json")
    with pytest.raises(MalformedInputError):
        parse_trace(b"[1, 2]")
    with pytest.raises(MalformedInputError, match="^not valid JSON: "):
        parse_trace(b"\xff")


def test_synthesize_shape():
    trace = synthesize_trace(layers=3, act_size=4096, weight_size=1024,
                             dur=100, seed=0)
    assert len(trace.kernels) == 6
    assert [k.name for k in trace.kernels] == [
        "fwd_0", "fwd_1", "fwd_2", "bwd_2", "bwd_1", "bwd_0"]
    # weights are global and referenced by both passes of their layer
    for i in range(3):
        assert trace.tensors[i].kind is TensorKind.GLOBAL
        users = [k.index for k in trace.kernels if i in k.tensors()]
        assert users == [i, 2 * 3 - 1 - i]
    # forward chain: fwd_i reads the previous activation
    assert 3 in trace.kernels[1].inputs  # a_0
    assert trace.total_us() == 600


def test_synthesize_deterministic():
    a = synthesize_trace(4, (1024, 8192), (512, 2048), (50, 150), seed=9)
    b = synthesize_trace(4, (1024, 8192), (512, 2048), (50, 150), seed=9)
    c = synthesize_trace(4, (1024, 8192), (512, 2048), (50, 150), seed=10)
    assert a == b
    assert a != c
    assert serialize_trace(a) == serialize_trace(b)


def test_synthesize_rejects_bad_params():
    with pytest.raises(InvalidParamsError):
        synthesize_trace(0, 1024, 1024, 100)
    with pytest.raises(InvalidParamsError):
        synthesize_trace(2, (10, 5), 1024, 100)
    with pytest.raises(InvalidParamsError):
        synthesize_trace(2, "big", 1024, 100)
    with pytest.raises(InvalidParamsError):
        synthesize_trace(2, 1024, 1024, 0)


@settings(max_examples=60, deadline=None)
@given(layers=st.integers(1, 6), seed=st.integers(0, 2**32 - 1),
       act=st.integers(1, 10**6), weight=st.integers(1, 10**6))
def test_synthesize_round_trips(layers, seed, act, weight):
    trace = synthesize_trace(layers, act, weight, (1, 1000), seed=seed)
    assert parse_trace(serialize_trace(trace)) == trace
    assert len(trace.tensors) == 3 * layers
    assert all(k.tensors() <= set(trace.tensors) for k in trace.kernels)
