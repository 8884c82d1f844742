package triclust_test

import (
	"fmt"

	"triclust"
)

// Example demonstrates offline tri-clustering on a micro-corpus: user-level
// sentiment emerges from clustering tweets, users and words jointly.
func Example() {
	corpus := &triclust.Corpus{
		Users: []triclust.User{{Name: "pro"}, {Name: "anti"}},
		Tweets: []triclust.Tweet{
			{Text: "love this great win, support it", User: 0, RetweetOf: -1, Label: triclust.NoLabel},
			{Text: "happy and safe, agree strongly", User: 0, RetweetOf: -1, Label: triclust.NoLabel},
			{Text: "terrible awful scam, oppose it", User: 1, RetweetOf: -1, Label: triclust.NoLabel},
			{Text: "dangerous lies, fear and failure", User: 1, RetweetOf: -1, Label: triclust.NoLabel},
		},
	}
	cfg := triclust.DefaultConfig()
	cfg.K = 2
	cfg.Seed = 1
	topic, err := triclust.NewTopic(nil,
		triclust.WithSolverConfig(triclust.OnlineConfig{Config: cfg}),
		triclust.WithMinDF(1))
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	res, err := topic.FitCorpus(corpus)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	for i, s := range res.UserSentiments {
		fmt.Printf("%s: %s\n", corpus.Users[i].Name, triclust.ClassName(s.Class))
	}
	// Output:
	// pro: positive
	// anti: negative
}
