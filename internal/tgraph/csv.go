package tgraph

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// CSVOptions configure ReadCSV.
type CSVOptions struct {
	// Comma is the field separator ('\t' for TSV); 0 means ','.
	Comma rune
	// HasHeader skips the first record.
	HasHeader bool
	// TimeDivisor converts raw integer timestamps to the model's
	// granularity (e.g. 86400 turns unix seconds into days); 0 means 1.
	TimeDivisor int
}

// ReadCSV ingests a tweet stream in the common export layout
//
//	user,time,text[,retweet_of[,label]]
//
// where user is a free-form screen name (interned in order of first
// appearance), time is an integer timestamp, retweet_of is the 0-based
// index of an earlier row (-1 or empty for none), and label is
// pos/neg/neu (or empty / "-" for unlabeled). It returns a validated
// corpus; tweet text remains untokenized (call Corpus.Tokenize or let
// Topic.FitCorpus do it).
func ReadCSV(r io.Reader, opts CSVOptions) (*Corpus, error) {
	cr := csv.NewReader(r)
	if opts.Comma != 0 {
		cr.Comma = opts.Comma
	}
	cr.FieldsPerRecord = -1 // allow optional trailing columns
	div := opts.TimeDivisor
	if div <= 0 {
		div = 1
	}

	c := &Corpus{}
	userIdx := map[string]int{}
	intern := func(name string) int {
		if id, ok := userIdx[name]; ok {
			return id
		}
		id := len(c.Users)
		userIdx[name] = id
		c.Users = append(c.Users, User{Name: name, Label: NoLabel})
		return id
	}

	line := 0
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("tgraph: csv line %d: %w", line+1, err)
		}
		line++
		if opts.HasHeader && line == 1 {
			continue
		}
		if len(rec) < 3 {
			return nil, fmt.Errorf("tgraph: csv line %d: want ≥3 fields, got %d", line, len(rec))
		}
		ts, err := strconv.Atoi(strings.TrimSpace(rec[1]))
		if err != nil {
			return nil, fmt.Errorf("tgraph: csv line %d: bad time %q", line, rec[1])
		}
		tw := Tweet{
			User:      intern(strings.TrimSpace(rec[0])),
			Time:      ts / div,
			Text:      rec[2],
			RetweetOf: -1,
			Label:     NoLabel,
		}
		if len(rec) >= 4 {
			f := strings.TrimSpace(rec[3])
			if f != "" && f != "-" && f != "-1" {
				rt, err := strconv.Atoi(f)
				if err != nil {
					return nil, fmt.Errorf("tgraph: csv line %d: bad retweet_of %q", line, rec[3])
				}
				tw.RetweetOf = rt
			}
		}
		if len(rec) >= 5 {
			lab, err := ParseLabel(rec[4])
			if err != nil {
				return nil, fmt.Errorf("tgraph: csv line %d: %w", line, err)
			}
			tw.Label = lab
		}
		c.Tweets = append(c.Tweets, tw)
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return c, nil
}

// ParseLabel maps a textual sentiment label to a class index: pos/neg/neu
// (any case, also "positive"/"negative"/"neutral" and "+"/"0"/"-"
// spellings); empty, "-" and "unlabeled" map to NoLabel.
func ParseLabel(s string) (int, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "pos", "positive", "+", "yes":
		return 0, nil
	case "neg", "negative", "no":
		return 1, nil
	case "neu", "neutral", "0":
		return 2, nil
	case "", "-", "unlabeled", "none":
		return NoLabel, nil
	default:
		return 0, fmt.Errorf("tgraph: unknown label %q", s)
	}
}

// WriteCSV emits the corpus in the ReadCSV layout (with header and both
// optional columns), so corpora can round-trip through spreadsheets.
func WriteCSV(w io.Writer, c *Corpus, comma rune) error {
	cw := csv.NewWriter(w)
	if comma != 0 {
		cw.Comma = comma
	}
	if err := cw.Write([]string{"user", "time", "text", "retweet_of", "label"}); err != nil {
		return err
	}
	labelName := func(l int) string {
		switch l {
		case 0:
			return "pos"
		case 1:
			return "neg"
		case 2:
			return "neu"
		default:
			return "-"
		}
	}
	for _, tw := range c.Tweets {
		text := tw.Text
		if text == "" && len(tw.Tokens) > 0 {
			text = strings.Join(tw.Tokens, " ")
		}
		rec := []string{
			c.Users[tw.User].Name,
			strconv.Itoa(tw.Time),
			text,
			strconv.Itoa(tw.RetweetOf),
			labelName(tw.Label),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
