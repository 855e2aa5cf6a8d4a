"""Fine-tune classifier heads from a pretrained encoder.

The encoder is warm-started from a pretrained checkpoint; a fresh affine head
reads the position-0 hidden state. Validation loss is checked at evenly
spaced checkpoints and the best one is kept. Also runs the small learning
rate x batch size grid.

Run:  python3 demos/05_classifier_finetuning.py
"""

from domainlm.model import ModelConfig
from domainlm.synthetic import binary_corpus
from domainlm.tokenizer import Tokenizer
from domainlm.training import (
    TrainingConfig,
    finetune_classifier,
    hyperparameter_grid,
    pack_segments,
    pretrain_mlm,
)

docs = binary_corpus(280, seed=11)
train_docs, val_docs = docs[:240], docs[240:]
tokenizer = Tokenizer.train((d.text for d in docs), 512)

model_config = ModelConfig(
    num_layers=2, num_heads=2, hidden_dim=32, ff_dim=64,
    vocab_size=tokenizer.vocab_size, max_positions=64, dropout_rate=0.0,
)
print("pretraining a small encoder...")
segments = pack_segments((tokenizer.encode(d.text) for d in docs), tokenizer.sep_id, 32)
base = pretrain_mlm(
    TrainingConfig(learning_rate=3e-3, batch_size=16, total_steps=200, log_every=100, seed=3),
    segments, model_config, tokenizer,
).checkpoint

config = TrainingConfig(learning_rate=1e-3, batch_size=16, epochs=3, eval_checkpoints=6, log_every=20, seed=13)

for task in ("binary", "multiclass"):
    result = finetune_classifier(config, base, task, train_docs, val_docs, tokenizer)
    print(f"\n{task} task: {len(result.best_checkpoint.extra['class_labels'])} classes, "
          f"best checkpoint at step {result.best.step} "
          f"(validation loss {result.best.validation_loss:.4f})")
    print(result.metrics.format_table())

print("\nlearning rate x batch size grid (validation metrics per cell):")
cells = hyperparameter_grid(
    "binary", config, (1e-3, 3e-3), (8, 16), base, train_docs, val_docs, tokenizer
)
print(f"{'lr':>8} {'batch':>6} {'accuracy':>9} {'f1':>7} {'loss':>8} status")
for cell in cells:
    print(f"{cell.learning_rate:>8} {cell.batch_size:>6} {cell.accuracy:>9.4f} {cell.f1:>7.4f} {cell.loss:>8.4f} {cell.status}")
