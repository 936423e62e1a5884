package netmesh

import (
	"reflect"
	"testing"
)

// TestCountersAddSumsEveryField fills every counter with a distinct
// value and checks Add carries each one, so a counter added to the
// struct but not to Add fails here instead of reading 0 in aggregates.
func TestCountersAddSumsEveryField(t *testing.T) {
	var one Counters
	v := reflect.ValueOf(&one).Elem()
	for i := 0; i < v.NumField(); i++ {
		v.Field(i).SetInt(int64(i + 1))
	}
	var sum Counters
	sum.Add(one)
	sum.Add(one)
	s := reflect.ValueOf(sum)
	for i := 0; i < s.NumField(); i++ {
		if got, want := s.Field(i).Int(), int64(2*(i+1)); got != want {
			t.Errorf("Add drops %s: sum = %d, want %d", s.Type().Field(i).Name, got, want)
		}
	}
}
