package dnn

import "fmt"

// bertConfig holds transformer dimensions.
type bertConfig struct {
	name         string
	layers       int
	hidden       int
	heads        int
	intermediate int
	seqLen       int
	vocab        int
}

// BERTLarge returns BERT-large (24 layers, hidden 1024) configured for
// SQuAD 2.0 fine-tuning at sequence length 384, matching Table II's 345 M
// gradient volume.
func BERTLarge() *Model {
	return buildBERT(bertConfig{
		name:         "bert-large",
		layers:       24,
		hidden:       1024,
		heads:        16,
		intermediate: 4096,
		seqLen:       384,
		vocab:        30522,
	})
}

func buildBERT(cfg bertConfig) *Model {
	t := float64(cfg.seqLen)
	h := float64(cfg.hidden)

	m := &Model{
		Name:   cfg.name,
		Family: "bert",
		// One sample is the token ids + attention mask for the sequence.
		SampleBytes: float64(cfg.seqLen) * 2 * BytesPerParam,
	}

	// Token + position + segment embeddings. Embedding lookup is a
	// gather: negligible FLOPs, full gradient volume.
	embedParams := int64(cfg.vocab+512+2) * int64(cfg.hidden)
	m.Layers = append(m.Layers, Layer{
		Kind:            KindEmbedding,
		Name:            "embeddings",
		Params:          embedParams,
		FwdFLOPs:        t * h,
		ActivationBytes: t * h * BytesPerParam,
	})
	m.Layers = append(m.Layers, layerNorm("embeddings.ln", cfg))

	// actFactor inflates retained activations per block to account for
	// dropout masks, GELU intermediates and backward workspace; it is
	// what limits BERT-large to small per-GPU batches on 16 GB V100s
	// (the paper trains at batch 4).
	const actFactor = 1.8

	for i := 0; i < cfg.layers; i++ {
		prefix := fmt.Sprintf("encoder.%d", i)

		// Self-attention: Q, K, V projections + output projection.
		projParams := int64(cfg.hidden)*int64(cfg.hidden) + int64(cfg.hidden)
		projFLOPs := 2 * t * h * h
		for _, p := range []string{"q", "k", "v"} {
			m.Layers = append(m.Layers, Layer{
				Kind:            KindFC,
				Name:            fmt.Sprintf("%s.attn.%s", prefix, p),
				Params:          projParams,
				FwdFLOPs:        projFLOPs,
				ActivationBytes: actFactor * t * h * BytesPerParam,
			})
		}
		// Scaled dot-product attention: QK^T and attention-weighted V.
		attnFLOPs := 2 * 2 * t * t * h
		attnAct := actFactor * 2 * float64(cfg.heads) * t * t * BytesPerParam
		m.Layers = append(m.Layers, Layer{
			Kind:            KindAttention,
			Name:            prefix + ".attn.scores",
			FwdFLOPs:        attnFLOPs,
			ActivationBytes: attnAct,
		})
		m.Layers = append(m.Layers, Layer{
			Kind:            KindFC,
			Name:            prefix + ".attn.out",
			Params:          projParams,
			FwdFLOPs:        projFLOPs,
			ActivationBytes: actFactor * t * h * BytesPerParam,
		})
		m.Layers = append(m.Layers, layerNorm(prefix+".ln1", cfg))

		// Feed-forward network.
		ffParams := int64(cfg.hidden)*int64(cfg.intermediate) + int64(cfg.intermediate)
		m.Layers = append(m.Layers, Layer{
			Kind:            KindFC,
			Name:            prefix + ".ffn.up",
			Params:          ffParams,
			FwdFLOPs:        2 * t * h * float64(cfg.intermediate),
			ActivationBytes: actFactor * t * float64(cfg.intermediate) * BytesPerParam,
		})
		m.Layers = append(m.Layers, Layer{
			Kind:            KindFC,
			Name:            prefix + ".ffn.down",
			Params:          int64(cfg.intermediate)*int64(cfg.hidden) + int64(cfg.hidden),
			FwdFLOPs:        2 * t * h * float64(cfg.intermediate),
			ActivationBytes: actFactor * t * h * BytesPerParam,
		})
		m.Layers = append(m.Layers, layerNorm(prefix+".ln2", cfg))
	}

	// SQuAD span-prediction head: start/end logits per token.
	m.Layers = append(m.Layers, Layer{
		Kind:            KindFC,
		Name:            "qa_outputs",
		Params:          int64(cfg.hidden)*2 + 2,
		FwdFLOPs:        2 * t * h * 2,
		ActivationBytes: t * 2 * BytesPerParam,
	})
	return m
}

func layerNorm(name string, cfg bertConfig) Layer {
	t := float64(cfg.seqLen)
	h := float64(cfg.hidden)
	return Layer{
		Kind:            KindLayerNorm,
		Name:            name,
		Params:          2 * int64(cfg.hidden),
		FwdFLOPs:        5 * t * h,
		ActivationBytes: t * h * BytesPerParam,
	}
}
