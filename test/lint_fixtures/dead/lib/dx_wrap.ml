include Dx_base
