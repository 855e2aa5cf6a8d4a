"""domainlm: a desk-scale masked language model pipeline.

Byte-level BPE tokenization, transformer-encoder pretraining (fresh or
continued on in-domain text), classifier fine-tuning with best-checkpoint
selection, metric evaluation, training-set-size scaling studies, and
class-based TF-IDF topic analysis of document embeddings. All numerics run on
numpy with gradients checked against finite differences.
"""
