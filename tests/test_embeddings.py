import numpy as np
import pytest

from composed_losses import tsum
from fairfilter import autodiff as ad
from fairfilter import embeddings as emb
from fairfilter.errors import DataError


def write_vectors(path, lines):
    path.write_text("\n".join(lines) + "\n")


class TestLoadWordVectors:
    def test_parses_tokens_and_dim(self, tmp_path):
        p = tmp_path / "v.txt"
        write_vectors(p, ["cat 0.1 0.2 0.3", "dog -1.0 0.0 2.5"])
        store = emb.load_word_vectors(p)
        assert store.dim == 3
        assert len(store.vectors) == 2
        np.testing.assert_allclose(store.lookup("dog"), [-1.0, 0.0, 2.5])

    def test_case_folding_on_lookup(self, tmp_path):
        p = tmp_path / "v.txt"
        write_vectors(p, ["Women 1.0 2.0"])
        store = emb.load_word_vectors(p)
        np.testing.assert_allclose(store.lookup("WOMEN"), [1.0, 2.0])

    def test_inconsistent_arity_names_the_line(self, tmp_path):
        p = tmp_path / "v.txt"
        write_vectors(p, ["a 1.0 2.0", "b 1.0 2.0 3.0"])
        with pytest.raises(DataError, match="line 2"):
            emb.load_word_vectors(p)

    def test_non_numeric_entry_rejected(self, tmp_path):
        p = tmp_path / "v.txt"
        write_vectors(p, ["a 1.0 oops"])
        with pytest.raises(DataError, match="line 1"):
            emb.load_word_vectors(p)

    def test_trailing_whitespace_accepted(self, tmp_path):
        p = tmp_path / "v.txt"
        write_vectors(p, ["cat 0.1 0.2 ", "dog -1.0 0.0\t", "owl 3.0 4.0 \r"])
        store = emb.load_word_vectors(p)
        assert store.dim == 2
        np.testing.assert_allclose(store.lookup("owl"), [3.0, 4.0])

    def test_empty_file_rejected(self, tmp_path):
        p = tmp_path / "v.txt"
        p.write_text("")
        with pytest.raises(DataError, match="empty"):
            emb.load_word_vectors(p)

    def test_save_load_round_trip_is_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        vectors = {f"tok{i}": rng.normal(size=5) for i in range(10)}
        p = tmp_path / "v.txt"
        emb.save_word_vectors(vectors, p)
        store = emb.load_word_vectors(p)
        for token, vec in vectors.items():
            assert store.lookup(token).tobytes() == vec.tobytes()


class TestTokenizeTarget:
    @pytest.mark.parametrize("name,expected", [
        ("Muslim", ["muslim"]),
        ("african_american", ["african", "american"]),
        ("Latin-American women", ["latin", "american", "women"]),
    ])
    def test_splits_and_lowercases(self, name, expected):
        assert emb.tokenize_target(name) == expected

    def test_empty_name_rejected(self):
        with pytest.raises(DataError):
            emb.tokenize_target("  - ")


class TestBuildIndicator:
    def store(self):
        return emb.WordVectorStore(
            vectors={"african": np.asarray([1.0, 0.0]),
                     "american": np.asarray([0.0, 3.0])},
            dim=2)

    def test_multiword_indicator_is_token_mean(self):
        ind = emb.build_indicator("african_american", self.store())
        np.testing.assert_allclose(ind.vector, [0.5, 1.5])
        assert ind.tokens == ["african", "american"]
        assert ind.skipped == []

    def test_oov_tokens_skipped_and_reported(self):
        ind = emb.build_indicator("african martian", self.store())
        np.testing.assert_allclose(ind.vector, [1.0, 0.0])
        assert ind.skipped == ["martian"]

    def test_fully_unresolvable_target_is_error(self):
        with pytest.raises(DataError, match="no tokens resolvable"):
            emb.build_indicator("martian", self.store())

    def test_zero_mean_indicator_is_error(self):
        store = emb.WordVectorStore(vectors={"up": np.asarray([1.0, -2.0]),
                                             "down": np.asarray([-1.0, 2.0])}, dim=2)
        with pytest.raises(DataError, match="all zeros"):
            emb.build_indicator("up down", store)


class TestEncoderAdapter:
    def test_square_single_layer_starts_as_identity(self):
        adapter = emb.EncoderAdapter(4, 4, np.random.default_rng(0))
        x = np.random.default_rng(1).normal(size=(3, 4))
        out = adapter.encode(ad.constant(x))
        np.testing.assert_array_equal(out.data, x)

    def test_projecting_layer_output_shape(self):
        adapter = emb.EncoderAdapter(10, 6, np.random.default_rng(0))
        out = adapter.encode(ad.constant(np.zeros((5, 10))))
        assert out.data.shape == (5, 6)

    def test_narrow_input_encodes_as_a_pair(self):
        # d_in < d_out: the encoding stays factored as (x, W0), which a
        # head's first layer folds
        adapter = emb.EncoderAdapter(3, 6, np.random.default_rng(0))
        x = ad.constant(np.random.default_rng(1).normal(size=(5, 3)))
        rows, basis = adapter.encode(x)
        assert rows is x and basis is adapter.group.tensors["W0"]

    def test_dim_mismatch_rejected(self):
        adapter = emb.EncoderAdapter(10, 6, np.random.default_rng(0))
        with pytest.raises(DataError, match="dim 10"):
            adapter.encode(ad.constant(np.zeros((5, 7))))

    def test_gradients_reach_adapter_weights(self):
        adapter = emb.EncoderAdapter(5, 3, np.random.default_rng(0), depth=2)
        out = adapter.encode(ad.constant(np.random.default_rng(1).normal(size=(4, 5))))
        ad.backward(tsum(out * out))
        for name, tensor in adapter.group.tensors.items():
            assert tensor.grad is not None, name
            assert np.any(tensor.grad != 0.0)


class TestEncodePosts:
    def test_stacks_record_embeddings(self):
        from fairfilter.data import PostRecord
        records = [PostRecord(id="a", targets=("x",), label=0,
                              embedding=np.asarray([1.0, 2.0])),
                   PostRecord(id="b", targets=("x",), label=1,
                              embedding=np.asarray([3.0, 4.0]))]
        adapter = emb.EncoderAdapter(2, 2, np.random.default_rng(0))
        out = emb.encode_posts(emb.stack_embeddings(records), adapter)
        np.testing.assert_array_equal(out.data, [[1.0, 2.0], [3.0, 4.0]])

    def test_text_only_record_rejected(self):
        from fairfilter.data import PostRecord
        records = [PostRecord(id="a", targets=("x",), label=0, text="hi")]
        with pytest.raises(DataError, match="'a'"):
            emb.stack_embeddings(records)
