package hashtag

import (
	"math/rand"
	"sort"

	"fleet/internal/metrics"
	"fleet/internal/nn"
	"fleet/internal/tensor"
)

// Recommender is the trainable hashtag model: softmax regression from
// normalized token counts to hashtag scores, recommending the top-k
// hashtags with the largest output values. It is the offline stand-in for
// the paper's small TensorFlow RNN (123k parameters) — what the experiment
// measures is update timeliness, not model expressiveness.
type Recommender struct {
	net   *nn.Network
	vocab int
}

// NewRecommender builds a fresh model for the stream's vocabulary.
func NewRecommender(cfg StreamConfig, rng *rand.Rand) *Recommender {
	return &Recommender{
		net:   nn.NewNetwork(cfg.MaxHashtags, nn.NewDense(rng, cfg.Vocab, cfg.MaxHashtags)),
		vocab: cfg.Vocab,
	}
}

// features converts a token bag to a normalized count vector.
func (r *Recommender) features(tokens []int) *tensor.Tensor {
	x := tensor.New(r.vocab)
	for _, tok := range tokens {
		if tok >= 0 && tok < r.vocab {
			x.Data()[tok]++
		}
	}
	if len(tokens) > 0 {
		x.Scale(1 / float64(len(tokens)))
	}
	return x
}

// TopK returns the k highest-scoring hashtag ids for a tweet body.
func (r *Recommender) TopK(tokens []int, k int) []int {
	logits := r.net.Forward(r.features(tokens))
	idx := make([]int, logits.Len())
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		return logits.Data()[idx[a]] > logits.Data()[idx[b]]
	})
	if k > len(idx) {
		k = len(idx)
	}
	return idx[:k]
}

// Gradient computes the average gradient of the mini-batch formed by the
// given tweets (one sample per tweet, labelled with its first hashtag).
// It returns nil for an empty batch.
func (r *Recommender) Gradient(tweets []Tweet) []float64 {
	var batch []nn.Sample
	for _, t := range tweets {
		if len(t.Hashtags) == 0 {
			continue
		}
		batch = append(batch, nn.Sample{X: r.features(t.Tokens), Label: t.Hashtags[0]})
	}
	if len(batch) == 0 {
		return nil
	}
	grad, _ := r.net.Gradient(batch)
	return grad
}

// Apply performs one SGD step with the given gradient and learning rate.
func (r *Recommender) Apply(grad []float64, lr float64) {
	r.net.ApplyGradient(grad, lr)
}

// TrainOn runs one gradient-descent update per user mini-batch, in user id
// order (deterministic). This mirrors the paper's training: each gradient
// is derived from a single user's mini-batch.
func (r *Recommender) TrainOn(tweets []Tweet, lr float64) int {
	byUser := GroupByUser(tweets)
	users := make([]int, 0, len(byUser))
	for u := range byUser {
		users = append(users, u)
	}
	sort.Ints(users)
	updates := 0
	for _, u := range users {
		if grad := r.Gradient(byUser[u]); grad != nil {
			r.Apply(grad, lr)
			updates++
		}
	}
	return updates
}

// F1At5 evaluates the mean F1@top-5 over an evaluation chunk (the paper's
// §3.1 metric). It returns 0 for an empty chunk.
func (r *Recommender) F1At5(tweets []Tweet) float64 {
	if len(tweets) == 0 {
		return 0
	}
	sum := 0.0
	for _, t := range tweets {
		actual := make(map[int]bool, len(t.Hashtags))
		for _, h := range t.Hashtags {
			actual[h] = true
		}
		sum += metrics.F1AtK(r.TopK(t.Tokens, 5), actual)
	}
	return sum / float64(len(tweets))
}

// MostPopularBaseline recommends the 5 most frequent hashtags of the
// training window (the paper's baseline [42, 63]).
type MostPopularBaseline struct {
	top []int
}

// TrainOn counts hashtags in the window.
func (b *MostPopularBaseline) TrainOn(tweets []Tweet, maxTags int) {
	counts := make([]int, maxTags)
	for _, t := range tweets {
		for _, h := range t.Hashtags {
			if h >= 0 && h < maxTags {
				counts[h]++
			}
		}
	}
	idx := make([]int, maxTags)
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, c int) bool { return counts[idx[a]] > counts[idx[c]] })
	k := 5
	if k > len(idx) {
		k = len(idx)
	}
	b.top = idx[:k]
}

// F1At5 evaluates the baseline on a chunk.
func (b *MostPopularBaseline) F1At5(tweets []Tweet) float64 {
	if len(tweets) == 0 || len(b.top) == 0 {
		return 0
	}
	sum := 0.0
	for _, t := range tweets {
		actual := make(map[int]bool, len(t.Hashtags))
		for _, h := range t.Hashtags {
			actual[h] = true
		}
		sum += metrics.F1AtK(b.top, actual)
	}
	return sum / float64(len(tweets))
}
