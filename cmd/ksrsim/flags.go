package main

import (
	"flag"
	"fmt"
	"reflect"
	"strconv"
	"strings"
)

// bindConfig registers one flag on fs for each JSON-visible field of the
// struct cfg points to, flattening embedded structs. The flag is named
// by the field's flag tag, else by its lower-cased name; its usage is the
// help tag and its default the field's current value. Parsing writes
// straight into the field, so a command's flags decode to exactly the
// config that a job spec with the same fields decodes to.
func bindConfig(fs *flag.FlagSet, cfg any) error {
	return bindFields(fs, reflect.ValueOf(cfg).Elem())
}

func bindFields(fs *flag.FlagSet, v reflect.Value) error {
	t := v.Type()
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		switch {
		case f.Tag.Get("json") == "-":
			continue
		case f.Anonymous && f.Type.Kind() == reflect.Struct:
			if err := bindFields(fs, v.Field(i)); err != nil {
				return err
			}
			continue
		case !f.IsExported():
			continue
		}
		name := f.Tag.Get("flag")
		if name == "" {
			name = strings.ToLower(f.Name)
		}
		elem := f.Type
		if elem.Kind() == reflect.Slice {
			elem = elem.Elem()
		}
		if !scalarKinds[elem.Kind()] {
			return fmt.Errorf("%s.%s: no flag syntax for type %s", t.Name(), f.Name, f.Type)
		}
		if fs.Lookup(name) != nil {
			return fmt.Errorf("%s.%s: flag -%s is already bound", t.Name(), f.Name, name)
		}
		fs.Var(fieldValue{v.Field(i)}, name, f.Tag.Get("help"))
	}
	return nil
}

// scalarKinds are the field kinds a flag can set, alone or as the
// element of a comma-separated slice.
var scalarKinds = map[reflect.Kind]bool{
	reflect.String: true, reflect.Bool: true, reflect.Int: true,
	reflect.Int64: true, reflect.Uint64: true, reflect.Float64: true,
}

// fieldValue is the flag.Value of one config field. A slice field takes
// a comma-separated list; the empty string sets it to nil.
type fieldValue struct{ v reflect.Value }

func (f fieldValue) String() string {
	if !f.v.IsValid() || f.v.IsZero() {
		return ""
	}
	if f.v.Kind() != reflect.Slice {
		return fmt.Sprint(f.v)
	}
	parts := make([]string, f.v.Len())
	for i := range parts {
		parts[i] = fmt.Sprint(f.v.Index(i))
	}
	return strings.Join(parts, ",")
}

func (f fieldValue) Set(s string) error {
	if f.v.Kind() != reflect.Slice {
		return setScalar(f.v, s)
	}
	if s == "" {
		f.v.SetZero()
		return nil
	}
	parts := strings.Split(s, ",")
	list := reflect.MakeSlice(f.v.Type(), len(parts), len(parts))
	for i, p := range parts {
		if err := setScalar(list.Index(i), strings.TrimSpace(p)); err != nil {
			return err
		}
	}
	f.v.Set(list)
	return nil
}

// IsBoolFlag lets a bool field be set by its bare flag, as -checked.
func (f fieldValue) IsBoolFlag() bool { return f.v.Kind() == reflect.Bool }

// setScalar parses s into v with the flag package's syntax for v's kind.
func setScalar(v reflect.Value, s string) error {
	switch v.Kind() {
	case reflect.String:
		v.SetString(s)
	case reflect.Bool:
		b, err := strconv.ParseBool(s)
		if err != nil {
			return err
		}
		v.SetBool(b)
	case reflect.Int, reflect.Int64:
		n, err := strconv.ParseInt(s, 0, v.Type().Bits())
		if err != nil {
			return err
		}
		v.SetInt(n)
	case reflect.Uint64:
		n, err := strconv.ParseUint(s, 0, 64)
		if err != nil {
			return err
		}
		v.SetUint(n)
	case reflect.Float64:
		x, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return err
		}
		v.SetFloat(x)
	}
	return nil
}
