import numpy as np
import pytest

from domainlm.autodiff import Tensor, _blas_thread_controls
from domainlm.model import ModelConfig
from domainlm.synthetic import binary_corpus
from domainlm.tokenizer import Tokenizer
from domainlm.training import TrainingConfig, pack_segments, pretrain_mlm

# A sentence of pool/glue words that all tokenize to single tokens; used by
# memorization-style tests.
MEMO_SENTENCE = "the moderator loop near reactor vessel with neutron flux"


@pytest.fixture(autouse=True)
def blas_thread_count_left_as_found():
    """Fail a test that leaves numpy's BLAS at another thread count, so a leaked pin shows where it happens."""
    controls = _blas_thread_controls()
    if controls is None:  # nothing can change the count
        yield
        return
    before = controls[0]()
    yield
    assert controls[0]() == before, f"BLAS thread count {before} became {controls[0]()}"


@pytest.fixture(scope="session")
def toy_docs():
    return binary_corpus(280, seed=11)


@pytest.fixture(scope="session")
def toy_tokenizer(toy_docs):
    texts = [d.text for d in toy_docs] + [MEMO_SENTENCE] * 5
    return Tokenizer.train(texts, 512)


@pytest.fixture(scope="session")
def toy_model_config(toy_tokenizer):
    return ModelConfig(
        num_layers=2,
        num_heads=2,
        hidden_dim=32,
        ff_dim=64,
        vocab_size=toy_tokenizer.vocab_size,
        max_positions=64,
        dropout_rate=0.0,
    )


@pytest.fixture(scope="session")
def toy_base_checkpoint(toy_docs, toy_tokenizer, toy_model_config):
    """A lightly pretrained encoder shared by fine-tuning tests."""
    segments = pack_segments(
        (toy_tokenizer.encode(d.text) for d in toy_docs), toy_tokenizer.sep_id, 32
    )
    config = TrainingConfig(
        learning_rate=3e-3, batch_size=16, total_steps=200, log_every=100, seed=3
    )
    return pretrain_mlm(config, segments, toy_model_config, toy_tokenizer).checkpoint


def finite_difference_gradients(loss_fn, params, names=None, h=1e-4):
    """Central-difference gradients of loss_fn() w.r.t. selected parameters."""
    grads = {}
    for name in names if names is not None else params:
        flat = params[name].data.reshape(-1)
        g = np.zeros_like(flat)
        for i in range(flat.size):
            original = flat[i]
            flat[i] = original + h
            up = loss_fn()
            flat[i] = original - h
            down = loss_fn()
            flat[i] = original
            g[i] = (up - down) / (2.0 * h)
        grads[name] = g.reshape(params[name].data.shape)
    return grads


def max_relative_error(a, b, floor=1e-3):
    """Elementwise |a-b| / max(|a|, |b|, floor), maximized.

    The floor keeps the ratio meaningful where both gradients are near zero;
    there the check still demands agreement within floor * tolerance.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return float(np.max(np.abs(a - b) / denom))


@pytest.fixture
def fd_gradients():
    return finite_difference_gradients


@pytest.fixture
def rel_error():
    return max_relative_error


def as_leaves(params: dict[str, Tensor]) -> dict[str, Tensor]:
    """Leaf tensors that require grad over the same arrays, as each training step makes them.

    Stored parameters never require grad, so a loss over them records no tape.
    """
    return {name: Tensor(p.data, requires_grad=True) for name, p in params.items()}
