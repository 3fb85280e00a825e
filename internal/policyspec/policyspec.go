// Package policyspec parses the declarative policy spec strings shared by
// the hwsim, retrieval and kvpool registries: a lower-case policy name with
// optional typed parameters, e.g.
//
//	resv
//	rekv(frame=0.58,text=0.31)
//	infinigen(text=0.068)
//	spill(evict=lru,pages=16)
//
// Registries consume parameters by key — numerically via Float/Int, or as
// enumeration strings via Str — and finish with CheckConsumed, which reports
// both unconsumed keys and type mismatches (a non-numeric value consumed by
// Float). Typos in CLI flags therefore fail loudly instead of silently using
// defaults.
package policyspec

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Spec is one parsed policy spec: a normalised name plus keyed parameters.
// Consume parameters with Float/Int/Str and finish with CheckConsumed to
// reject unknown keys and ill-typed values.
type Spec struct {
	// Name is the policy name, lower-cased and trimmed.
	Name string

	raw  map[string]string
	nums map[string]float64
	used map[string]bool
	errs []string
}

// Parse parses "name" or "name(k=v,k2=v2)". Names are case-insensitive;
// whitespace around tokens is ignored; duplicate keys are errors. Values may
// be numbers or bare strings (enumeration values like evict=lru); whether a
// string value is acceptable is decided by the consumer (Float records a
// type error, Str accepts it).
func Parse(s string) (*Spec, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil, fmt.Errorf("policyspec: empty spec")
	}
	name := s
	var arg string
	if i := strings.IndexByte(s, '('); i >= 0 {
		if !strings.HasSuffix(s, ")") {
			return nil, fmt.Errorf("policyspec: %q: missing closing parenthesis", s)
		}
		name = s[:i]
		arg = s[i+1 : len(s)-1]
	}
	name = strings.ToLower(strings.TrimSpace(name))
	if name == "" || strings.ContainsAny(name, "()=,") {
		return nil, fmt.Errorf("policyspec: %q: malformed policy name", s)
	}
	sp := &Spec{Name: name, raw: map[string]string{}, nums: map[string]float64{}, used: map[string]bool{}}
	if strings.TrimSpace(arg) == "" {
		// "name" and "name()" are equivalent.
		return sp, nil
	}
	for _, kv := range strings.Split(arg, ",") {
		k, v, ok := strings.Cut(kv, "=")
		if !ok {
			return nil, fmt.Errorf("policyspec: %q: parameter %q is not key=value", s, strings.TrimSpace(kv))
		}
		key := strings.ToLower(strings.TrimSpace(k))
		if key == "" {
			return nil, fmt.Errorf("policyspec: %q: empty parameter key", s)
		}
		if _, dup := sp.raw[key]; dup {
			return nil, fmt.Errorf("policyspec: %q: duplicate parameter %q", s, key)
		}
		val := strings.TrimSpace(v)
		if val == "" {
			return nil, fmt.Errorf("policyspec: %q: parameter %s: empty value", s, key)
		}
		sp.raw[key] = val
		// NaN and ±Inf are not numbers here: every numeric parameter is a
		// ratio, count, time or rate, and a non-finite one slips past range
		// checks written as comparisons.
		if f, err := strconv.ParseFloat(val, 64); err == nil && !math.IsNaN(f) && !math.IsInf(f, 0) {
			sp.nums[key] = f
		}
	}
	return sp, nil
}

// Float consumes the parameter key as a number, returning def when absent. A
// present but non-numeric value, including one that parses to NaN or ±Inf,
// records a type error reported by CheckConsumed.
func (s *Spec) Float(key string, def float64) float64 {
	if _, ok := s.raw[key]; !ok {
		return def
	}
	s.used[key] = true
	v, ok := s.nums[key]
	if !ok {
		s.errs = append(s.errs, fmt.Sprintf("parameter %s: bad number %q", key, s.raw[key]))
		return def
	}
	return v
}

// Int consumes the parameter key as an integer (truncating), returning def
// when absent.
func (s *Spec) Int(key string, def int) int {
	if _, ok := s.raw[key]; !ok {
		return def
	}
	return int(s.Float(key, float64(def)))
}

// Str consumes the parameter key as a string (lower-cased — string values
// are enumeration names), returning def when absent.
func (s *Spec) Str(key, def string) string {
	v, ok := s.raw[key]
	if !ok {
		return def
	}
	s.used[key] = true
	return strings.ToLower(v)
}

// Has reports whether the key was given (without consuming it).
func (s *Spec) Has(key string) bool {
	_, ok := s.raw[key]
	return ok
}

// Unused returns the sorted parameter keys never consumed by Float/Int/Str —
// unknown parameters the registry should reject.
func (s *Spec) Unused() []string {
	var out []string
	for k := range s.raw {
		if !s.used[k] {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}

// Param is one key=value parameter for Format. Value must be a string,
// float64 or int; floats render with the shortest representation that
// re-parses exactly, so Format output is a fixed point of Parse.
type Param struct {
	Key   string
	Value any
}

// P builds a Param — sugar for Format call sites.
func P(key string, value any) Param { return Param{Key: key, Value: value} }

// Format renders a canonical spec string — "name" for no parameters,
// "name(k=v,k2=v2)" otherwise — in the given parameter order. It is the
// inverse of Parse for well-formed inputs: Parse(Format(n, ps...)) yields the
// same name and parameter values, and the scenario marshaller relies on
// Format being a fixed point (formatting a parsed spec reproduces it byte for
// byte).
func Format(name string, params ...Param) string {
	if len(params) == 0 {
		return name
	}
	var sb strings.Builder
	sb.WriteString(name)
	sb.WriteByte('(')
	for i, p := range params {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(p.Key)
		sb.WriteByte('=')
		switch v := p.Value.(type) {
		case string:
			sb.WriteString(v)
		case float64:
			sb.WriteString(strconv.FormatFloat(v, 'g', -1, 64))
		case int:
			sb.WriteString(strconv.Itoa(v))
		default:
			panic(fmt.Sprintf("policyspec: Format value for %s must be string, float64 or int, got %T", p.Key, p.Value))
		}
	}
	sb.WriteByte(')')
	return sb.String()
}

// CheckConsumed returns an error for any type mismatch recorded during
// consumption, then for unconsumed parameters, listing the keys the policy
// does accept.
func (s *Spec) CheckConsumed(known ...string) error {
	if len(s.errs) > 0 {
		return fmt.Errorf("policyspec: policy %q: %s", s.Name, strings.Join(s.errs, "; "))
	}
	if u := s.Unused(); len(u) > 0 {
		return fmt.Errorf("policyspec: policy %q does not accept parameter(s) %s (known: %s)",
			s.Name, strings.Join(u, ", "), strings.Join(known, ", "))
	}
	return nil
}
