package ckpt

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// loadOracle is the straightforward form of Load, kept as the test oracle of
// the canonical-line fast path: every line is decoded with json.Unmarshal.
func loadOracle(path string) (map[string]json.RawMessage, int, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, 0, fmt.Errorf("ckpt: %w", err)
	}
	seen := make(map[string]json.RawMessage)
	torn := 0
	for len(data) > 0 {
		nl := bytes.IndexByte(data, '\n')
		if nl < 0 {
			torn++
			break
		}
		line := data[:nl]
		data = data[nl+1:]
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		var rec record
		if err := json.Unmarshal(line, &rec); err != nil || rec.Key == "" {
			torn++
			continue
		}
		seen[rec.Key] = rec.Value
	}
	return seen, torn, nil
}

// mergeFilesOracle is the straightforward form of MergeFiles: decode every
// record, then re-encode every merged record with json.Marshal.
func mergeFilesOracle(w io.Writer, paths ...string) (MergeStats, error) {
	var st MergeStats
	merged := make(map[string]json.RawMessage)
	origin := make(map[string]string)
	var study string
	var studyFrom string
	for _, path := range paths {
		seen, torn, err := loadOracle(path)
		if err != nil {
			return st, err
		}
		st.Files++
		st.Torn += torn
		if raw, ok := seen[MetaPrefix+"study"]; ok {
			if study == "" {
				study, studyFrom = string(raw), path
			} else if study != string(raw) {
				return st, fmt.Errorf("ckpt: merge: %s and %s journal different studies (%s vs %s)",
					studyFrom, path, study, raw)
			}
		}
		for key, raw := range seen {
			if strings.HasPrefix(key, MetaPrefix) {
				st.Meta++
				continue
			}
			if prev, ok := merged[key]; ok {
				if !bytes.Equal(prev, raw) {
					return st, fmt.Errorf("ckpt: merge: %s and %s disagree on %q — corrupt or foreign journal",
						origin[key], path, key)
				}
				continue
			}
			merged[key] = raw
			origin[key] = path
		}
	}
	keys := make([]string, 0, len(merged))
	for k := range merged {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		line, err := json.Marshal(record{Key: k, Value: merged[k]})
		if err != nil {
			return st, fmt.Errorf("ckpt: merge: %w", err)
		}
		if _, err := w.Write(append(line, '\n')); err != nil {
			return st, fmt.Errorf("ckpt: merge: %w", err)
		}
		st.Records++
	}
	return st, nil
}

// oracleSeedLines are journal lines the fuzzer starts from: canonical lines
// that take the fast path, and lines that must miss it — whitespace inside
// and outside strings, HTML-escaped bytes, U+2028/U+2029, escaped and
// non-ASCII keys, swapped field order, duplicate key fields, trailing
// garbage and torn tails.
var oracleSeedLines = []string{
	`{"key":"a","value":{"n":1,"s":"x"}}`,
	`{"key":"b","value":[1,2.5,-3e2,true,false,null]}`,
	`{"key":"meta|study","value":"sig-1"}`,
	`{"key":"meta|shard","value":{"lo":0,"hi":4}}`,
	`{"key":"a","value":{"n": 1,"s":"x"}}`,
	`{"key":"a","value":{"n":1,"s":"x y"}}`,
	` {"key":"a","value":1}`,
	`{"key":"a","value":1} `,
	"{\"key\":\"a\",\"value\":1}\r",
	"{\"key\":\"a\",\"value\":{\"s\":\"\t\"}}",
	"{\"key\":\"a\",\"value\":[1,\t2]}",
	"{\"key\":\"a\",\"value\":[1,\r2]}",
	`{"key":"a","value":"<b>&amp;</b>"}`,
	`{"key":"a","value":"a<b"}`,
	`{"key":"a","value":"a>b"}`,
	`{"key":"a","value":"a&b"}`,
	"{\"key\":\"a\",\"value\":\"  \"}",
	"{\"key\":\"a\",\"value\":\"— dash\"}",
	"{\"key\":\"a\",\"value\":\"\u2028\"}",
	"{\"key\":\"a\",\"value\":[\"\u2029\"]}",
	`{"key":"a\"q","value":1}`,
	`{"key":"ab","value":1}`,
	`{"key":"<k>&","value":1}`,
	"{\"key\":\"ké\",\"value\":1}",
	"{\"key\":\"k\xff\",\"value\":1}",
	"{\"key\":\"\x01\",\"value\":1}",
	`{"value":1,"key":"a"}`,
	`{"key":"a","key":"b","value":1}`,
	`{"key":"a","value":1,"key":"b"}`,
	`{"key":"a","value":1,"value":2}`,
	`{"KEY":"a","Value":1}`,
	`{"key":"a"}`,
	`{"key":"","value":1}`,
	`{"key":"a","value":1}x`,
	`{"key":"a","value":1}}`,
	`{"key":"a","value":{"n":1}`,
	`{"key":"a","value":}`,
	`{"key":"a","value":"unterminated}`,
	`not json at all`,
	``,
	`   `,
}

// writeFuzzJournal writes data to path, failing the test on error.
func writeFuzzJournal(t *testing.T, path string, data []byte) {
	t.Helper()
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// FuzzMergeFiles feeds the same two journals to MergeFiles and to the
// decode-everything oracle: the output bytes and the error-or-not must
// match, and on success so must the MergeStats. (On error the Meta count
// depends on map iteration order in both implementations.)
func FuzzMergeFiles(f *testing.F) {
	for i, a := range oracleSeedLines {
		b := oracleSeedLines[(i+1)%len(oracleSeedLines)]
		f.Add([]byte(a+"\n"+b+"\n"), []byte(`{"key":"a","value":{"n":1,"s":"x"}}`+"\n"+b))
		f.Add([]byte(a+"\n"), []byte(a))
	}
	f.Fuzz(func(t *testing.T, a, b []byte) {
		dir := t.TempDir()
		pa, pb := filepath.Join(dir, "a.jsonl"), filepath.Join(dir, "b.jsonl")
		writeFuzzJournal(t, pa, a)
		writeFuzzJournal(t, pb, b)
		var got, want bytes.Buffer
		gotSt, gotErr := MergeFiles(&got, pa, pb)
		wantSt, wantErr := mergeFilesOracle(&want, pa, pb)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("MergeFiles error = %v, oracle error = %v", gotErr, wantErr)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("MergeFiles output differs from oracle:\n%q\nvs\n%q", got.Bytes(), want.Bytes())
		}
		if gotErr == nil && gotSt != wantSt {
			t.Fatalf("MergeFiles stats = %+v, oracle = %+v", gotSt, wantSt)
		}
		gotSeen, gotTorn, _ := Load(pa)
		wantSeen, wantTorn, _ := loadOracle(pa)
		if gotTorn != wantTorn || len(gotSeen) != len(wantSeen) {
			t.Fatalf("Load = %d keys, %d torn; oracle %d keys, %d torn", len(gotSeen), gotTorn, len(wantSeen), wantTorn)
		}
		for k, v := range wantSeen {
			if !bytes.Equal(gotSeen[k], v) {
				t.Fatalf("Load[%q] = %q, oracle %q", k, gotSeen[k], v)
			}
		}
	})
}

// TestMergeFilesMatchesOracleOnSeeds runs every seed line, in each pair of
// files, through both merges, so the fallback rules are exercised by plain
// go test and not only under -fuzz.
func TestMergeFilesMatchesOracleOnSeeds(t *testing.T) {
	dir := t.TempDir()
	pa, pb := filepath.Join(dir, "a.jsonl"), filepath.Join(dir, "b.jsonl")
	for _, a := range oracleSeedLines {
		for _, b := range oracleSeedLines {
			writeFuzzJournal(t, pa, []byte(a+"\n"+`{"key":"c","value":3}`+"\n"))
			writeFuzzJournal(t, pb, []byte(b+"\n"+a))
			var got, want bytes.Buffer
			gotSt, gotErr := MergeFiles(&got, pa, pb)
			wantSt, wantErr := mergeFilesOracle(&want, pa, pb)
			if (gotErr == nil) != (wantErr == nil) || !bytes.Equal(got.Bytes(), want.Bytes()) ||
				(gotErr == nil && gotSt != wantSt) {
				t.Fatalf("lines %q / %q: MergeFiles = %q, %+v, %v; oracle = %q, %+v, %v",
					a, b, got.Bytes(), gotSt, gotErr, want.Bytes(), wantSt, wantErr)
			}
		}
	}
}

// TestCanonicalLineTakesAppendOutput pins the fast path to Append's layout:
// a line Append wrote for a plain key and an ordinary value is recognized
// with its key and value, so merging a real journal re-encodes nothing.
func TestCanonicalLineTakesAppendOutput(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	j, err := OpenWith(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	v := map[string]any{"points": []float64{1.5, 2, 3e-7}, "name": "vgg16|conv1_1", "ok": true}
	if err := j.Append("explore|p=1|c=(8,8,4,2)", v); err != nil {
		t.Fatal(err)
	}
	j.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	key, value, ok := canonicalLine(bytes.TrimSuffix(data, []byte("\n")))
	want, _ := json.Marshal(v)
	if !ok || key != "explore|p=1|c=(8,8,4,2)" || !bytes.Equal(value, want) {
		t.Fatalf("canonicalLine(%q) = %q, %q, %v; want the appended key and value", data, key, value, ok)
	}
}

// TestAppendLineMatchesRecordMarshal is the property behind Append's
// hand-built line: for any key and value it equals
// json.Marshal(record{key, raw}) plus a newline.
func TestAppendLineMatchesRecordMarshal(t *testing.T) {
	keys := []string{"a", "meta|study", `q"uote`, `back\slash`, "<tag>&", "ké", " ", "bad\xffutf8", "tab\there", ""}
	values := []any{
		1, -2.5e-9, "plain", "<b>&</b>", "line sep", "bad\xffutf8", true, nil,
		[]int{1, 2, 3}, map[string]any{"z": 1, "a": []string{"x", " y "}},
		json.RawMessage(`{ "spaced" : [ 1 , 2 ] }`), json.RawMessage(`"<raw>"`),
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		b := make([]byte, rng.Intn(12))
		for k := range b {
			b[k] = byte(rng.Intn(256))
		}
		keys = append(keys, string(b))
		values = append(values, map[string]any{string(b): rng.Float64(), "n": rng.Int63()})
	}
	path := filepath.Join(t.TempDir(), "j.jsonl")
	for i, key := range keys {
		v := values[i%len(values)]
		j, err := OpenWith(path, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := j.Append(key, v); err != nil {
			t.Fatal(err)
		}
		j.Close()
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := json.Marshal(v)
		want, err := json.Marshal(record{Key: key, Value: raw})
		if err != nil {
			t.Fatal(err)
		}
		if want = append(want, '\n'); !bytes.Equal(got, want) {
			t.Fatalf("Append(%q, %v) wrote %q, want %q", key, v, got, want)
		}
	}
}
