| 68020 code for main
main_entry:
    moveq #0,d0                     
    cmpl #3,d0                      
    jge L2                          
L3:
    fmoved (___fc0),fp0             
    fmoved (___fc1),fp1             
    fmoved (___fc2),fp2             
    fmoved (___fc3),fp3             
    lea (_a),a0                      | strength-reduce pointer
    lea (_b),a1                      | strength-reduce pointer
L0:
    fmovel d0,fp4                   
    fmulx fp1,fp4                   
    faddx fp0,fp4                   
    fmoved fp4,a0@+                 
    fmovel d0,fp4                   
    fmulx fp3,fp4                   
    faddx fp2,fp4                   
    fmoved fp4,a1@+                 
    addql #1,d0                     
    cmpl #3,d0                      
    jlt L0                          
L4:
L2:
    moveq #0,d0                     
    cmpl #3,d0                      
    jge L7                          
L8:
    lea (_a),a0                      | strength-reduce pointer
    lea (_b),a1                      | strength-reduce pointer
    lea (_c),a2                      | strength-reduce pointer
L5:
    fmoved a0@+,fp0                 
    fmoved a1@+,fp1                 
    faddx fp1,fp0                   
    fmoved fp0,a2@+                 
    addql #1,d0                     
    cmpl #3,d0                      
    jlt L5                          
L9:
L7:
    fmoved (16 + _c),fp0            
    fmovel fp0,d0                   
    rts                             

