"""Non-finite values stop training, indexing and search with a defined error."""

import numpy as np
import pytest

from multires.cli import main
from multires.errors import ContractError, NumericalError
from multires.model import TrainConfig, train
from multires.numerics.adam import AdamConfig
from multires.retrieval import build_index, search
from multires.synthetic import clustered_dataset


def small_clustered():
    return clustered_dataset(1, num_docs=64, num_queries=128)


def test_exploding_learning_rate_names_the_iteration():
    data = small_clustered()
    cfg = TrainConfig(iterations=5, batch_size=32, seed=1, adam=AdamConfig(learning_rate=1e30))
    with pytest.raises(NumericalError, match=r"^iteration \d+: "):
        train(data.pairs, data.query_matrices, data.doc_matrices, "convrr", cfg)


def test_inf_query_cell_stops_before_the_first_step():
    data = small_clustered()
    queries = dict(data.query_matrices)
    first = data.pairs[0].query_id
    queries[first] = queries[first].copy()
    queries[first][0, 3] = np.inf
    cfg = TrainConfig(iterations=3, batch_size=len(data.pairs), seed=1)
    with pytest.raises(NumericalError, match="iteration 1: the encoded batch is non-finite"):
        train(data.pairs, queries, data.doc_matrices, "fcrr", cfg)


def test_non_finite_gradient_names_the_tensor(monkeypatch):
    """A gradient that turns non-finite while the batch and loss stay finite."""
    from multires.model import encoder as enc

    real = enc.grouped_backward

    def poisoned(params, groups, upstream):
        grads = real(params, groups, upstream)
        grads[1] = np.full_like(grads[1], np.nan)
        return grads

    monkeypatch.setattr(enc, "grouped_backward", poisoned)
    data = small_clustered()
    cfg = TrainConfig(iterations=2, batch_size=32, seed=1, adam=AdamConfig(learning_rate=1e-2))
    with pytest.raises(NumericalError, match="iteration 1: the gradient of bias is non-finite"):
        train(data.pairs, data.query_matrices, data.doc_matrices, "fcrr", cfg)


def test_cli_train_exits_2_and_writes_no_checkpoint(cli_workspace, capsys):
    code = main(["train", "--config", str(cli_workspace["config"]), "--lr", "1e38", "--iters", "6"])
    assert code == 2
    assert "iteration" in capsys.readouterr().err
    assert not cli_workspace["checkpoint"].exists()
    assert not cli_workspace["loss_trace"].exists()


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_build_index_rejects_non_finite_rows(bad):
    row = np.full(4, bad)
    with pytest.raises(ContractError, match="'b'"):
        build_index([("a", np.array([1.0, 0, 0, 0])), ("b", row)])
    partly = np.array([1.0, 0, 0, bad])
    with pytest.raises(ContractError, match="'b'"):
        build_index([("a", np.array([1.0, 0, 0, 0])), ("b", partly)])


def test_search_rejects_a_non_finite_query():
    index = build_index([("a", np.array([1.0, 0.0])), ("b", np.array([0.0, 1.0]))])
    with pytest.raises(NumericalError):
        search(index, np.array([np.nan, 1.0]), 1)
