package dise_test

import (
	"encoding/json"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"

	"dise"
	"dise/internal/constraint"
	idise "dise/internal/dise"
	"dise/internal/service"
	"dise/internal/symexec"
)

// TestEveryCounterReachesStatsJSON walks every counter the engine, the
// solver and the DiSE pruner count and requires each one to surface under a
// snake_case key, with a non-zero value, in the JSON of a fully populated
// dise.Stats. A counter added to one of those structs without reaching the
// result fails here.
func TestEveryCounterReachesStatsJSON(t *testing.T) {
	var st dise.Stats
	populate(reflect.ValueOf(&st).Elem(), new(int))
	got := flatJSON(t, st)
	present := map[string]bool{}
	for k, v := range got {
		if v.value != false && v.value != 0.0 && v.value != "" {
			present[k[strings.LastIndex(k, ".")+1:]] = true
		}
	}
	snake := regexp.MustCompile(`^[a-z][a-z0-9]*(_[a-z0-9]+)*$`)
	for _, typ := range []reflect.Type{
		reflect.TypeOf(symexec.Stats{}),
		reflect.TypeOf(constraint.Stats{}),
		reflect.TypeOf(idise.PruneStats{}),
	} {
		eachCounter(typ, typ.Name(), func(path, key string) {
			switch {
			case !snake.MatchString(key):
				t.Errorf("%s: key %q is not snake_case", path, key)
			case !present[key]:
				t.Errorf("%s: no %q key carries it in dise.Stats JSON", path, key)
			}
		})
	}
}

// TestStatsJSONKeysStable pins the JSON shape of Result stats and of the
// service's /metrics stats blocks: every key of the previous shape keeps its
// name, JSON type and omission rule, and the only keys added are the
// counters that used to be dropped on the way up.
func TestStatsJSONKeysStable(t *testing.T) {
	var st dise.Stats
	populate(reflect.ValueOf(&st).Elem(), new(int))
	checkShape(t, "Stats", &st, "", statsKeys, newStatsKeys)

	var m service.Metrics
	populate(reflect.ValueOf(&m).Elem(), new(int))
	for _, block := range []string{"solver_stats", "memo_stats", "merge_stats", "totals", "parse_cache", "prefix_cache"} {
		want := map[string]string{}
		for k, v := range statsKeys {
			if strings.HasPrefix(k, block+".") {
				want[k] = v
			}
		}
		for k, v := range metricsKeys {
			if strings.HasPrefix(k, block+".") {
				want[k] = v
			}
		}
		var added []string
		for _, k := range newStatsKeys {
			switch {
			case strings.HasPrefix(k, block+"."):
				added = append(added, k)
			case block == "totals" && !strings.Contains(k, "."):
				added = append(added, "totals."+k)
			}
		}
		checkShape(t, "Metrics", &m, block+".", want, added)
	}
}

// statsKeys is the dise.Stats JSON shape before the engine's counter groups
// were passed through: key -> JSON type, ",omitempty" when a zero value is
// omitted. The memo/merge/solver blocks also make up /metrics.
var statsKeys = map[string]string{
	"states_explored":                 "number",
	"path_conditions":                 "number",
	"infeasible_branches":             "number",
	"time_ms":                         "number",
	"solver_calls":                    "number",
	"search_strategy":                 "string",
	"explore_parallelism":             "number",
	"solver_stats.backend":            "string",
	"solver_stats.checks":             "number",
	"solver_stats.sat":                "number",
	"solver_stats.unsat":              "number",
	"solver_stats.unknown":            "number",
	"solver_stats.pushed_frames":      "number",
	"solver_stats.popped_frames":      "number",
	"solver_stats.cache_hits":         "number",
	"solver_stats.cache_misses":       "number",
	"solver_stats.model_reuses":       "number",
	"solver_stats.box_conflicts":      "number",
	"solver_stats.full_solves":        "number",
	"solver_stats.frame_memo_hits":    "number",
	"solver_stats.ext_solves":         "number,omitempty",
	"solver_stats.ext_answers":        "number,omitempty",
	"solver_stats.ext_unknowns":       "number,omitempty",
	"solver_stats.ext_timeouts":       "number,omitempty",
	"solver_stats.ext_restarts":       "number,omitempty",
	"solver_stats.ext_breaker_trips":  "number,omitempty",
	"solver_stats.fallback_solves":    "number,omitempty",
	"solver_stats.member_failures":    "number,omitempty",
	"solver_stats.check_panics":       "number,omitempty",
	"memo_stats.enabled":              "bool",
	"memo_stats.step":                 "number",
	"memo_stats.memo_hits":            "number",
	"memo_stats.states_replayed":      "number",
	"memo_stats.states_explored_live": "number",
	"memo_stats.nodes_kept":           "number",
	"memo_stats.nodes_invalidated":    "number",
	"memo_stats.nodes_evicted":        "number",
	"memo_stats.trie_nodes":           "number",
	"memo_stats.trie_bytes":           "number",
	"merge_stats.enabled":             "bool",
	"merge_stats.bound":               "number",
	"merge_stats.merges":              "number",
	"merge_stats.merged_states_saved": "number",
	"merge_stats.ite_nodes":           "number",
}

// metricsKeys are the /metrics-only blocks of the same previous shape.
var metricsKeys = map[string]string{
	"totals.states_explored":     "number",
	"totals.path_conditions":     "number",
	"totals.infeasible_branches": "number",
	"totals.analysis_ms":         "number",
	"parse_cache.hits":           "number",
	"parse_cache.misses":         "number",
	"parse_cache.entries":        "number",
	"parse_cache.bytes_approx":   "number",
	"parse_cache.evictions":      "number",
	"prefix_cache.hits":          "number",
	"prefix_cache.misses":        "number",
	"prefix_cache.entries":       "number",
	"prefix_cache.bytes_approx":  "number",
	"prefix_cache.evictions":     "number",
}

// newStatsKeys are the counters the engine, solver and pruner counted but
// the previous shape dropped. Top-level ones also appear in /metrics totals.
var newStatsKeys = []string{
	"depth_bound_hits", "model_hits", "paths_explored", "max_states_hit",
	"pruned_states", "unaffected_paths", "resets",
	"solver_stats.asserts", "solver_stats.search_nodes",
	"solver_stats.propagations", "solver_stats.box_snapshots",
}

// checkShape compares the JSON of the populated struct *v, restricted to
// keys under prefix, against want (previous keys with type and omission
// rule) plus added (new keys). Each key's omission rule is checked by
// zeroing just that field.
func checkShape(t *testing.T, name string, v any, prefix string, want map[string]string, added []string) {
	t.Helper()
	got := flatJSON(t, v)
	extra := map[string]bool{}
	for k, leaf := range got {
		if strings.HasPrefix(k, prefix) && leaf.kind != "object" {
			extra[k] = true
		}
	}
	for _, k := range sortedKeys(want) {
		delete(extra, k)
		typ, omit := strings.CutSuffix(want[k], ",omitempty")
		g, ok := got[k]
		if !ok {
			t.Errorf("%s: key %q missing", name, k)
			continue
		}
		if g.kind != typ {
			t.Errorf("%s: key %q is a JSON %s, want %s", name, k, g.kind, typ)
		}
		field := fieldByKey(reflect.ValueOf(v).Elem(), k)
		if !field.IsValid() {
			t.Errorf("%s: no field behind key %q", name, k)
			continue
		}
		saved := reflect.ValueOf(field.Interface())
		field.SetZero()
		_, kept := flatJSON(t, v)[k]
		field.Set(saved)
		if kept == omit {
			t.Errorf("%s: key %q omitempty = %v, want %v", name, k, !kept, omit)
		}
	}
	for _, k := range added {
		if !extra[k] {
			t.Errorf("%s: new key %q missing", name, k)
		}
		delete(extra, k)
	}
	for k := range extra {
		t.Errorf("%s: unexpected key %q", name, k)
	}
}

type jsonLeaf struct {
	kind  string
	value any
}

// flatJSON marshals v and flattens its objects to dotted keys, keeping the
// blocks (objects) themselves as entries of kind "object".
func flatJSON(t *testing.T, v any) map[string]jsonLeaf {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	var tree map[string]any
	if err := json.Unmarshal(b, &tree); err != nil {
		t.Fatal(err)
	}
	out := map[string]jsonLeaf{}
	var walk func(prefix string, m map[string]any)
	walk = func(prefix string, m map[string]any) {
		for k, v := range m {
			kind := "null"
			switch v := v.(type) {
			case map[string]any:
				kind = "object"
				walk(prefix+k+".", v)
			case float64:
				kind = "number"
			case string:
				kind = "string"
			case bool:
				kind = "bool"
			}
			out[prefix+k] = jsonLeaf{kind, v}
		}
	}
	walk("", tree)
	return out
}

// populate sets every exported scalar field reachable from v to a distinct
// non-zero value (booleans true), so no omitempty rule can hide a key.
func populate(v reflect.Value, next *int) {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).IsExported() {
				populate(v.Field(i), next)
			}
		}
	case reflect.Int, reflect.Int64, reflect.Int32:
		*next++
		v.SetInt(int64(*next))
	case reflect.Uint64, reflect.Uint32, reflect.Uint:
		*next++
		v.SetUint(uint64(*next))
	case reflect.Float64:
		*next++
		v.SetFloat(float64(*next))
	case reflect.Bool:
		v.SetBool(true)
	case reflect.String:
		v.SetString("x")
	}
}

// eachCounter calls f with the JSON key of every counter field (integer or
// boolean, durations excluded) declared in typ or in the structs it holds.
// The key is the field's json tag name, or its snake_cased Go name when it
// has none.
func eachCounter(typ reflect.Type, path string, f func(path, key string)) {
	for i := 0; i < typ.NumField(); i++ {
		fld := typ.Field(i)
		p := path + "." + fld.Name
		switch {
		case fld.Type.Kind() == reflect.Struct:
			eachCounter(fld.Type, p, f)
		case fld.Type == reflect.TypeOf(time.Duration(0)):
		case fld.Type.Kind() == reflect.Int || fld.Type.Kind() == reflect.Int64 || fld.Type.Kind() == reflect.Bool:
			key, _, _ := strings.Cut(fld.Tag.Get("json"), ",")
			if key == "" {
				key = snakeCase(fld.Name)
			}
			f(p, key)
		}
	}
}

func snakeCase(s string) string {
	var b strings.Builder
	for i, r := range s {
		if r >= 'A' && r <= 'Z' {
			if i > 0 {
				b.WriteByte('_')
			}
			r += 'a' - 'A'
		}
		b.WriteRune(r)
	}
	return b.String()
}

// fieldByKey resolves a dotted JSON key to the struct field behind it,
// descending into embedded structs the way encoding/json flattens them.
func fieldByKey(v reflect.Value, key string) reflect.Value {
	head, rest, nested := strings.Cut(key, ".")
	for i := 0; i < v.NumField(); i++ {
		fld := v.Type().Field(i)
		if !fld.IsExported() {
			continue
		}
		name, _, _ := strings.Cut(fld.Tag.Get("json"), ",")
		if fld.Anonymous && name == "" && fld.Type.Kind() == reflect.Struct {
			if f := fieldByKey(v.Field(i), key); f.IsValid() {
				return f
			}
			continue
		}
		if name != head {
			continue
		}
		if nested {
			return fieldByKey(v.Field(i), rest)
		}
		return v.Field(i)
	}
	return reflect.Value{}
}

func sortedKeys(m map[string]string) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
