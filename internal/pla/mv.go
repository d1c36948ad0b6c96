package pla

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"picola/internal/cover"
	"picola/internal/cube"
)

// MV is a multi-valued cover file in the espresso .mv tradition: the
// header declares the variable sizes, every row is one cube with the
// binary variables as 0/1/- characters and each multi-valued variable as
// a bit-vector delimited by '|'. Because the repository's flows carry
// explicit ON/DC/OFF covers, the format is extended with .on/.dc/.off
// section markers (rows before any marker belong to the ON-set).
//
//	.mv 4 2 5 3      # 4 variables: 2 binary, then sizes 5 and 3
//	.on
//	01|10110|001
//	.dc
//	1-|11111|010
//	.e
type MV struct {
	D   *cube.Domain
	On  *cover.Cover
	DC  *cover.Cover
	Off *cover.Cover
}

// NewMV returns an empty MV cover file over d.
func NewMV(d *cube.Domain) *MV {
	return &MV{D: d, On: cover.New(d), DC: cover.New(d), Off: cover.New(d)}
}

// ParseMV reads an MV cover file.
func ParseMV(r io.Reader) (*MV, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	var p *MV
	section := "on"
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if i := strings.IndexByte(text, '#'); i >= 0 {
			text = strings.TrimSpace(text[:i])
		}
		if text == "" {
			continue
		}
		if strings.HasPrefix(text, ".") {
			fields := strings.Fields(text)
			switch fields[0] {
			case ".mv":
				if len(fields) < 3 {
					return nil, fmt.Errorf("pla:%d: malformed .mv", line)
				}
				nv, err1 := strconv.Atoi(fields[1])
				nb, err2 := strconv.Atoi(fields[2])
				if err1 != nil || err2 != nil || nv < 1 || nb < 0 || nb > nv {
					return nil, fmt.Errorf("pla:%d: bad .mv counts", line)
				}
				if len(fields)-3 != nv-nb {
					return nil, fmt.Errorf("pla:%d: .mv declares %d multi-valued variables but lists %d sizes",
						line, nv-nb, len(fields)-3)
				}
				sizes := make([]int, 0, nv)
				for i := 0; i < nb; i++ {
					sizes = append(sizes, 2)
				}
				for _, f := range fields[3:] {
					s, err := strconv.Atoi(f)
					if err != nil || s < 1 {
						return nil, fmt.Errorf("pla:%d: bad size %q", line, f)
					}
					sizes = append(sizes, s)
				}
				p = NewMV(cube.New(sizes...))
			case ".on", ".dc", ".off":
				section = fields[0][1:]
			case ".p":
				// advisory
			case ".e", ".end":
				goto done
			default:
				// ignore unknown directives
			}
			continue
		}
		if p == nil {
			return nil, fmt.Errorf("pla:%d: cube before .mv header", line)
		}
		c, err := parseMVRow(p.D, text)
		if err != nil {
			return nil, fmt.Errorf("pla:%d: %v", line, err)
		}
		switch section {
		case "on":
			p.On.Add(c)
		case "dc":
			p.DC.Add(c)
		case "off":
			p.Off.Add(c)
		}
	}
done:
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if p == nil {
		return nil, fmt.Errorf("pla: missing .mv header")
	}
	return p, nil
}

func parseMVRow(d *cube.Domain, text string) (cube.Cube, error) {
	fields := strings.Split(strings.ReplaceAll(text, " ", ""), "|")
	c := d.NewCube()
	fi := 0
	// The leading binary block is one field; each MV variable one more.
	v := 0
	for v < d.NumVars() && d.Size(v) == 2 {
		v++
	}
	nb := v
	want := 1
	if nb == 0 {
		want = 0
	}
	want += d.NumVars() - nb
	if len(fields) != want {
		return nil, fmt.Errorf("row has %d fields, want %d", len(fields), want)
	}
	if nb > 0 {
		bin := fields[0]
		fi = 1
		if len(bin) != nb {
			return nil, fmt.Errorf("binary block %q has %d characters, want %d", bin, len(bin), nb)
		}
		for i := 0; i < nb; i++ {
			switch bin[i] {
			case '0':
				d.Set(c, i, 0)
			case '1':
				d.Set(c, i, 1)
			case '-':
				d.Set(c, i, 0)
				d.Set(c, i, 1)
			default:
				return nil, fmt.Errorf("bad binary character %q", bin[i])
			}
		}
	}
	for v := nb; v < d.NumVars(); v++ {
		f := fields[fi]
		fi++
		if len(f) != d.Size(v) {
			return nil, fmt.Errorf("variable %d block %q has %d bits, want %d", v, f, len(f), d.Size(v))
		}
		for val := 0; val < d.Size(v); val++ {
			switch f[val] {
			case '1':
				d.Set(c, v, val)
			case '0':
			default:
				return nil, fmt.Errorf("bad bit %q in variable %d", f[val], v)
			}
		}
	}
	return c, nil
}

// Write emits the MV cover file. The leading run of binary variables
// forms the 0/1/- block; every later variable — two-valued or not — is
// written as a '|'-delimited bit-vector, which the header's size list
// makes unambiguous.
func (p *MV) Write(w io.Writer) error {
	d := p.D
	nb := 0
	for nb < d.NumVars() && d.Size(nb) == 2 {
		nb++
	}
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, ".mv %d %d", d.NumVars(), nb)
	for v := nb; v < d.NumVars(); v++ {
		fmt.Fprintf(bw, " %d", d.Size(v))
	}
	fmt.Fprintln(bw)
	emit := func(name string, f *cover.Cover) {
		if f == nil || f.Len() == 0 {
			return
		}
		fmt.Fprintf(bw, ".%s\n", name)
		for _, c := range f.Cubes {
			fmt.Fprintln(bw, mvRowString(d, c, nb))
		}
	}
	emit("on", p.On)
	emit("dc", p.DC)
	emit("off", p.Off)
	fmt.Fprintln(bw, ".e")
	return bw.Flush()
}

func mvRowString(d *cube.Domain, c cube.Cube, nb int) string {
	var sb strings.Builder
	for v := 0; v < nb; v++ {
		sb.WriteString(d.BinLit(c, v).String())
	}
	for v := nb; v < d.NumVars(); v++ {
		if v > 0 || nb > 0 {
			sb.WriteByte('|')
		}
		for val := 0; val < d.Size(v); val++ {
			if d.Has(c, v, val) {
				sb.WriteByte('1')
			} else {
				sb.WriteByte('0')
			}
		}
	}
	return sb.String()
}

// String renders the MV file as text.
func (p *MV) String() string {
	var sb strings.Builder
	_ = p.Write(&sb)
	return sb.String()
}
